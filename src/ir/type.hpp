// Type system for the AutoPhase IR.
//
// Deliberately small: void, integers (i1/i8/i16/i32/i64) and pointers.
// Aggregates are modelled as "alloca N elements" + flat index arithmetic
// (as C arrays decay to pointers), which keeps every Table-1 pass and the
// HLS scheduler honest without a full aggregate type system. Types are
// interned process-wide and immutable, so Type* equality is type equality.
#pragma once

#include <cstddef>

namespace autophase::ir {

enum class TypeKind { kVoid, kInt, kPointer };

class Type {
 public:
  [[nodiscard]] TypeKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_void() const noexcept { return kind_ == TypeKind::kVoid; }
  [[nodiscard]] bool is_int() const noexcept { return kind_ == TypeKind::kInt; }
  [[nodiscard]] bool is_pointer() const noexcept { return kind_ == TypeKind::kPointer; }

  /// Bit width; only valid for integer types.
  [[nodiscard]] int bits() const noexcept { return bits_; }

  /// Pointee type; only valid for pointer types.
  [[nodiscard]] Type* pointee() const noexcept { return pointee_; }

  /// Storage size used by the interpreter / HLS memory model.
  [[nodiscard]] std::size_t size_in_bytes() const noexcept;

  // Interned singletons.
  static Type* void_ty();
  static Type* i1();
  static Type* i8();
  static Type* i16();
  static Type* i32();
  static Type* i64();
  static Type* int_ty(int bits);
  static Type* pointer_to(Type* pointee);

  Type(const Type&) = delete;
  Type& operator=(const Type&) = delete;

 private:
  Type(TypeKind kind, int bits, Type* pointee) : kind_(kind), bits_(bits), pointee_(pointee) {}

  TypeKind kind_;
  int bits_ = 0;
  Type* pointee_ = nullptr;
};

}  // namespace autophase::ir
