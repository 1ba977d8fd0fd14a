#include "ir/printer.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <string_view>
#include <vector>

#include "support/hash.hpp"

namespace autophase::ir {

namespace {

/// Appends the printed bytes to a string (print_module, print_function).
struct StringSink {
  std::string& text;
  void write(std::string_view bytes) { text.append(bytes); }
};

/// Folds the printed bytes into a running FNV-1a state (module_fingerprint).
/// FNV-1a is a byte-serial fold, so hashing the pieces in order equals
/// hashing their concatenation: the fingerprint is fnv1a(print_module(m))
/// without the string.
struct HashSink {
  std::uint64_t state = kFnvOffset;
  void write(std::string_view bytes) { state = fnv1a(bytes, state); }
};

/// Value -> slot map of the function being printed: open addressing with
/// linear probing, filled once per function and then only read, once per
/// operand written.
class SlotMap {
 public:
  /// Empties the map and sizes it for `values` entries (load factor < 1/2).
  void reset(std::size_t values) {
    shift_ = 64 - std::bit_width(2 * values + 1);
    cells_.assign(std::size_t{1} << (64 - shift_), Cell{});
  }

  void insert(const Value* v, unsigned slot) {
    std::size_t i = home(v);
    while (cells_[i].value != nullptr) i = (i + 1) & (cells_.size() - 1);
    cells_[i] = {v, slot};
  }

  [[nodiscard]] const unsigned* find(const Value* v) const {
    for (std::size_t i = home(v); cells_[i].value != nullptr; i = (i + 1) & (cells_.size() - 1)) {
      if (cells_[i].value == v) return &cells_[i].slot;
    }
    return nullptr;
  }

 private:
  struct Cell {
    const Value* value = nullptr;
    unsigned slot = 0;
  };

  /// Fibonacci hashing: the top bits of the product spread aligned pointers.
  [[nodiscard]] std::size_t home(const Value* v) const {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(v) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  int shift_ = 0;
  std::vector<Cell> cells_;
};

constexpr unsigned kNoSlot = static_cast<unsigned>(-1);

/// A value or block label: its user name and its slot number.
struct Label {
  std::string_view name;
  unsigned slot;
};

constexpr Label kUnresolved{"?", kNoSlot};

/// The textual IR printer, writing bytes into `Sink`. Labels are slot
/// numbers, assigned per function up front (arguments first, then
/// instructions in block order; blocks count separately) and combined with
/// user names as they are written, so labels stay unique even after
/// name-mangling passes. Only reads the IR: the body behind a CoW rollout
/// clone is its source's, which several threads may print at once.
template <class Sink>
class Printer {
 public:
  explicit Printer(Sink s) : sink(s) {}

  Sink sink;

  void module(const Module& m) {
    *this << "; module '" << m.name() << "'\n";
    for (std::size_t i = 0; i < m.global_count(); ++i) {
      const GlobalVariable* g = m.global(i);
      *this << '@' << g->name() << " = global [" << g->element_count() << " x "
            << g->element_type() << ']';
      if (g->is_constant_data()) *this << " constant";
      const auto& init = g->init();
      if (!init.empty()) {
        *this << " {";
        for (std::size_t j = 0; j < init.size(); ++j) {
          if (j != 0) *this << ',';
          *this << init[j];
        }
        *this << '}';
      }
      *this << '\n';
    }
    for (std::size_t i = 0; i < m.function_count(); ++i) {
      *this << '\n';
      function(*m.function(i));
    }
  }

  void function(const Function& function) {
    // While a rollout clone's body is CoW-lazy its blocks still live in the
    // source function; name, signature, attributes, and body are all
    // bit-identical by construction, so printing the source *is* printing
    // this function — without forcing a deep copy. This is what keeps
    // fingerprinting an unmutated clone (the EvalService cache-hit path)
    // allocation-free on the IR side.
    const Function& f = *function.reading_body();
    assign_slots(f);
    *this << "define " << f.return_type() << " @" << f.name() << '(';
    for (std::size_t i = 0; i < f.arg_count(); ++i) {
      if (i != 0) *this << ", ";
      *this << f.arg(i)->type() << " %" << label(f.arg(i));
    }
    *this << ')';
    const auto& attrs = f.attrs();
    if (attrs.readnone) *this << " readnone";
    if (attrs.readonly) *this << " readonly";
    if (attrs.nounwind) *this << " nounwind";
    *this << " {\n";
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const BasicBlock* bb = f.block(b);
      *this << label(bb) << ':';
      if (const auto& preds = bb->predecessors(); !preds.empty()) {
        // Sorted as strings so the print (and hence the module fingerprint)
        // does not depend on predecessor-list bookkeeping order, which
        // cloning and edge rewiring legitimately permute.
        pred_labels_.resize(preds.size());
        for (std::size_t i = 0; i < preds.size(); ++i) {
          pred_labels_[i].clear();
          Printer<StringSink>(StringSink{pred_labels_[i]}) << label(preds[i]);
        }
        std::sort(pred_labels_.begin(), pred_labels_.end());
        *this << "  ; preds:";
        for (const std::string& p : pred_labels_) *this << ' ' << p;
      }
      *this << '\n';
      for (std::size_t i = 0; i < bb->size(); ++i) instruction(bb->inst(i));
    }
    *this << "}\n";
  }

  Printer& operator<<(std::string_view s) {
    sink.write(s);
    return *this;
  }
  Printer& operator<<(char c) { return *this << std::string_view(&c, 1); }
  /// Decimal, as std::to_string and ostream write it.
  template <std::integral Int>
  Printer& operator<<(Int v) {
    char buf[24];
    return *this << std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
  }
  Printer& operator<<(const Type* type) {
    switch (type->kind()) {
      case TypeKind::kVoid: return *this << "void";
      case TypeKind::kInt: return *this << 'i' << type->bits();
      case TypeKind::kPointer: return *this << type->pointee() << '*';
    }
    return *this << '?';
  }
  /// `name.slot`, or `slot` when unnamed; an unresolved label is `?`.
  Printer& operator<<(const Label& label) {
    if (label.slot == kNoSlot) return *this << label.name;
    if (!label.name.empty()) *this << label.name << '.';
    return *this << label.slot;
  }
  /// An operand: its type, then its constant, global name or local label.
  Printer& operator<<(const Value* v) {
    *this << v->type();
    switch (v->value_kind()) {
      case ValueKind::kConstantInt:
        return *this << ' ' << static_cast<const ConstantInt*>(v)->value();
      case ValueKind::kUndef: return *this << " undef";
      case ValueKind::kGlobalVariable: return *this << " @" << v->name();
      default: return *this << " %" << label(v);
    }
  }
  /// A block operand.
  Printer& operator<<(const BasicBlock* bb) { return *this << '%' << label(bb); }

 private:
  void assign_slots(const Function& f) {
    f_ = &f;
    value_slots_.reset(f.arg_count() + f.instruction_count());
    block_slots_.assign(f.block_number_bound(), kNoSlot);
    unsigned slot = 0;
    for (std::size_t i = 0; i < f.arg_count(); ++i) value_slots_.insert(f.arg(i), slot++);
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const BasicBlock* bb = f.block(b);
      block_slots_[bb->number()] = static_cast<unsigned>(b);
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* inst = bb->inst(i);
        if (!inst->type()->is_void()) value_slots_.insert(inst, slot++);
      }
    }
  }

  [[nodiscard]] Label label(const Value* v) const {
    const unsigned* slot = value_slots_.find(v);
    return slot != nullptr ? Label{v->name(), *slot} : kUnresolved;
  }

  [[nodiscard]] Label label(const BasicBlock* bb) const {
    const unsigned slot = bb->parent() == f_ && bb->number() < block_slots_.size()
                              ? block_slots_[bb->number()]
                              : kNoSlot;
    return slot != kNoSlot ? Label{bb->name(), slot} : kUnresolved;
  }

  void instruction(const Instruction* inst) {
    *this << "  ";
    if (!inst->type()->is_void()) *this << '%' << label(inst) << " = ";
    switch (inst->opcode()) {
      case Opcode::kICmp:
        *this << "icmp " << icmp_pred_name(inst->icmp_pred()) << ' ' << inst->operand(0) << ", "
              << inst->operand(1);
        break;
      case Opcode::kAlloca:
        *this << "alloca " << inst->allocated_type() << ", count " << inst->alloca_count();
        break;
      case Opcode::kPhi:
        *this << "phi " << inst->type();
        for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
          *this << (i == 0 ? " " : ", ") << "[ " << inst->incoming_value(i) << ", "
                << inst->incoming_block(i) << " ]";
        }
        break;
      case Opcode::kCall:
        *this << "call @" << inst->callee()->name() << '(';
        for (std::size_t i = 0; i < inst->operand_count(); ++i) {
          if (i != 0) *this << ", ";
          *this << inst->operand(i);
        }
        *this << ')';
        break;
      case Opcode::kBr: *this << "br label " << inst->successor(0); break;
      case Opcode::kCondBr:
        *this << "condbr " << inst->operand(0) << ", label " << inst->successor(0) << ", label "
              << inst->successor(1);
        break;
      case Opcode::kSwitch:
        *this << "switch " << inst->operand(0) << ", default " << inst->successor(0) << " [";
        for (std::size_t c = 0; c < inst->switch_case_count(); ++c) {
          if (c != 0) *this << ", ";
          *this << static_cast<const ConstantInt*>(inst->operand(1 + c))->value() << " -> "
                << inst->successor(1 + c);
        }
        *this << ']';
        break;
      case Opcode::kRet:
        *this << "ret";
        if (inst->operand_count() > 0) *this << ' ' << inst->operand(0);
        break;
      default:
        *this << opcode_name(inst->opcode());
        if (inst->is_cast()) *this << " to " << inst->type();
        for (std::size_t i = 0; i < inst->operand_count(); ++i) {
          *this << (i == 0 ? " " : ", ") << inst->operand(i);
        }
        break;
    }
    *this << '\n';
  }

  const Function* f_ = nullptr;
  SlotMap value_slots_;
  std::vector<unsigned> block_slots_;  // by BasicBlock::number(); kNoSlot if absent
  std::vector<std::string> pred_labels_;
};

}  // namespace

std::string print_function(const Function& function) {
  std::string text;
  Printer<StringSink>(StringSink{text}).function(function);
  return text;
}

std::string print_module(const Module& module) {
  std::string text;
  Printer<StringSink>(StringSink{text}).module(module);
  return text;
}

std::uint64_t module_fingerprint(const Module& module) {
  Printer<HashSink> printer(HashSink{});
  printer.module(module);
  return printer.sink.state;
}

std::uint64_t module_ir_size(const Module& module) {
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < module.function_count(); ++i) {
    // Same CoW read-through as print_function: sizing an unmutated rollout
    // clone walks the source body instead of materializing a copy.
    const Function* f = module.function(i)->reading_body();
    for (std::size_t b = 0; b < f->block_count(); ++b) size += 1 + f->block(b)->size();
  }
  return size;
}

}  // namespace autophase::ir
