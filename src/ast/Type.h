//===-- ast/Type.h - Kernel dialect types -----------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar/vector types of the naive-kernel dialect. Arrays are described by
/// an element type plus dimensions on the declaring entity (parameter or
/// shared variable), not by a type node.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_TYPE_H
#define GPUC_AST_TYPE_H

#include <cassert>
#include <string>

namespace gpuc {

/// Kinds of values the dialect manipulates. Float2/Float4 are the CUDA
/// vector types the paper's vectorization step (Section 3.1) targets.
enum class TypeKind { Void, Bool, Int, Float, Float2, Float4 };

/// A value type. Cheap to copy; compare with ==.
class Type {
public:
  Type() = default;
  explicit Type(TypeKind K) : K(K) {}

  static Type voidTy() { return Type(TypeKind::Void); }
  static Type boolTy() { return Type(TypeKind::Bool); }
  static Type intTy() { return Type(TypeKind::Int); }
  static Type floatTy() { return Type(TypeKind::Float); }
  static Type float2Ty() { return Type(TypeKind::Float2); }
  static Type float4Ty() { return Type(TypeKind::Float4); }

  TypeKind kind() const { return K; }
  bool isBool() const { return K == TypeKind::Bool; }
  bool isInt() const { return K == TypeKind::Int; }
  bool isFloat() const { return K == TypeKind::Float; }
  bool isFloatVector() const {
    return K == TypeKind::Float2 || K == TypeKind::Float4;
  }

  /// Number of float lanes for float-family types (1, 2 or 4).
  int vectorWidth() const {
    switch (K) {
    case TypeKind::Float:
      return 1;
    case TypeKind::Float2:
      return 2;
    case TypeKind::Float4:
      return 4;
    default:
      assert(false && "vectorWidth on non-float type");
      return 1;
    }
  }

  /// Storage size in bytes; the coalescing rules of Section 2 depend on it.
  int sizeInBytes() const {
    switch (K) {
    case TypeKind::Void:
      return 0;
    case TypeKind::Bool:
    case TypeKind::Int:
    case TypeKind::Float:
      return 4;
    case TypeKind::Float2:
      return 8;
    case TypeKind::Float4:
      return 16;
    }
    return 0;
  }

  /// CUDA spelling, as emitted by the printer.
  std::string str() const {
    switch (K) {
    case TypeKind::Void:
      return "void";
    case TypeKind::Bool:
      return "bool";
    case TypeKind::Int:
      return "int";
    case TypeKind::Float:
      return "float";
    case TypeKind::Float2:
      return "float2";
    case TypeKind::Float4:
      return "float4";
    }
    return "?";
  }

  friend bool operator==(Type A, Type B) { return A.K == B.K; }
  friend bool operator!=(Type A, Type B) { return !(A == B); }

private:
  TypeKind K = TypeKind::Void;
};

} // namespace gpuc

#endif // GPUC_AST_TYPE_H
