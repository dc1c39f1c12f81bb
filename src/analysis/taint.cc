#include "analysis/taint.h"

#include <algorithm>
#include <sstream>

#include "evm/analysis_cache.h"
#include "evm/opcodes.h"

namespace onoff::analysis {

void ValueSet::Insert(const U256& v) {
  if (top) return;
  auto it = std::lower_bound(values.begin(), values.end(), v);
  if (it != values.end() && *it == v) return;
  if (values.size() >= kMaxValues) {
    top = true;
    values.clear();
    return;
  }
  values.insert(it, v);
}

void ValueSet::Join(const ValueSet& other) {
  if (top) return;
  if (other.top) {
    top = true;
    values.clear();
    return;
  }
  for (const U256& v : other.values) {
    Insert(v);
    if (top) return;
  }
}

std::string ValueSet::ToString() const {
  if (top) return "⊤";
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ",";
    os << "0x" << values[i].ToHex();
  }
  os << "}";
  return os.str();
}

ValueSet EvalBinary(uint8_t opcode_byte, const ValueSet& a,
                    const ValueSet& b) {
  if (a.top || b.top || !evm::IsPureBinop(opcode_byte)) {
    return ValueSet::Top();
  }
  evm::Handler h = evm::BinopHandler(opcode_byte);
  ValueSet out{false, {}};
  for (const U256& va : a.values) {
    for (const U256& vb : b.values) {
      out.Insert(evm::EvalBinop(h, va, vb));
      if (out.top) return out;
    }
  }
  return out;
}

ValueSet EvalUnary(uint8_t opcode_byte, const ValueSet& a) {
  if (a.top) return ValueSet::Top();
  ValueSet out{false, {}};
  for (const U256& v : a.values) {
    switch (static_cast<evm::Opcode>(opcode_byte)) {
      case evm::Opcode::ISZERO:
        out.Insert(v.IsZero() ? U256(1) : U256(0));
        break;
      case evm::Opcode::NOT:
        out.Insert(~v);
        break;
      default:
        return ValueSet::Top();
    }
    if (out.top) return out;
  }
  return out;
}

const char* TaintName(Taint t) {
  switch (t) {
    case Taint::kClean:
      return "clean";
    case Taint::kSelectorWord:
      return "selector-word";
    case Taint::kPrivate:
      return "private";
  }
  return "?";
}

void TaintEnv::Join(const TaintEnv& other) {
  memory = memory || other.memory;
  storage_any = storage_any || other.storage_any;
  control = control || other.control;
  storage.insert(other.storage.begin(), other.storage.end());
}

bool TaintEnv::SlotTainted(const ValueSet& key) const {
  if (storage_any) return true;
  if (storage.empty()) return false;
  if (key.top) return true;  // may alias any tainted slot
  for (const U256& slot : key.values) {
    if (storage.count(slot) != 0) return true;
  }
  return false;
}

}  // namespace onoff::analysis
