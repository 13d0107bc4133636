//===-- support/StringUtils.cpp - String helpers --------------------------===//

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace gpuc;

std::string gpuc::envOr(const char *Name, const std::string &Default) {
  const char *V = std::getenv(Name);
  return V && *V ? std::string(V) : Default;
}

std::string gpuc::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(Args);
  return Out;
}

std::string gpuc::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

std::vector<std::string> gpuc::splitString(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(S.substr(Start));
      return Parts;
    }
    Parts.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string gpuc::trimString(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return S.substr(B, E - B + 1);
}

bool gpuc::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() && S.compare(0, Prefix.size(), Prefix) == 0;
}

int gpuc::countCodeLines(const std::string &Source) {
  int Count = 0;
  for (const std::string &RawLine : splitString(Source, '\n')) {
    std::string Line = trimString(RawLine);
    if (Line.empty() || Line == "{" || Line == "}" || startsWith(Line, "//") ||
        startsWith(Line, "#pragma"))
      continue;
    ++Count;
  }
  return Count;
}
