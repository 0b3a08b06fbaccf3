#include "src/res/facts_serialize.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/ir/printer.h"
#include "src/support/hash.h"
#include "src/symbolic/expr.h"

namespace res {

namespace {

constexpr uint64_t kMagic = 0x5245534641435431ULL;  // "RESFACT1"

// Same shape as the coredump codec's Writer/Reader (little-endian scalars,
// length-prefixed strings, wrap-safe bounds checks); duplicated rather than
// shared because both are private wire details free to drift apart.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > buf_.size()) {
      return false;
    }
    *v = buf_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > buf_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > buf_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) {
      return false;
    }
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool Str(std::string* s) {
    uint64_t n;
    // Compare against the remaining byte count, never against pos_ + n: an
    // adversarial n near UINT64_MAX would wrap the addition and pass.
    if (!U64(&n) || n > Remaining()) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(buf_.data()) + pos_,
              static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }
  // Sanity gate for untrusted element counts: a table of `count` elements,
  // each at least `min_element_bytes` on the wire, cannot be larger than
  // the remaining payload. Checked BEFORE any loop or allocation sized by
  // the count.
  bool FitsRemaining(uint64_t count, uint64_t min_element_bytes) const {
    return count <= Remaining() / min_element_bytes;
  }
  uint64_t Remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace

uint64_t ModuleFingerprint(const Module& module) {
  return FnvHashString(PrintModule(module));
}

std::vector<uint8_t> SerializeFactsLog(const FactsLog& log) {
  Writer w;
  w.U64(kMagic);
  w.U32(log.version);
  w.U64(log.module_fingerprint);

  w.U64(log.vars.size());
  for (const FactsLogVar& v : log.vars) {
    w.Str(v.name);
    w.U8(v.origin);
    w.U64(v.uid);
  }

  w.U64(log.exprs.size());
  for (const FactsLogExpr& e : log.exprs) {
    w.U8(e.kind);
    switch (static_cast<ExprKind>(e.kind)) {
      case ExprKind::kConst:
        w.I64(e.value);
        break;
      case ExprKind::kVar:
        w.U32(e.var);
        break;
      case ExprKind::kBinary:
        w.U8(e.bin_op);
        w.U32(e.a);
        w.U32(e.b);
        break;
      case ExprKind::kSelect:
        w.U32(e.a);
        w.U32(e.b);
        w.U32(e.c);
        break;
    }
  }

  w.U64(log.cores.size());
  for (const std::vector<uint32_t>& core : log.cores) {
    w.U64(core.size());
    for (uint32_t idx : core) {
      w.U32(idx);
    }
  }

  w.U64(log.keys.size());
  for (const FactsLog::Key& k : log.keys) {
    w.U64(k.set_key);
    w.U32(k.distinct);
    w.U8(k.with_core ? 1 : 0);
    w.U64(k.solver_fingerprint);
  }
  return w.Take();
}

Result<FactsLog> ParseFactsLog(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  uint64_t magic;
  if (!r.U64(&magic) || magic != kMagic) {
    return DataLoss("bad fact-log magic");
  }
  FactsLog log;
  if (!r.U32(&log.version)) {
    return DataLoss("truncated fact-log header");
  }
  if (log.version != kFactsLogVersion) {
    // Healthy bytes, wrong vintage: not corruption, a reader mismatch.
    return FailedPrecondition("unsupported fact-log version");
  }
  if (!r.U64(&log.module_fingerprint)) {
    return DataLoss("truncated fact-log header");
  }

  uint64_t var_count;
  if (!r.U64(&var_count)) {
    return DataLoss("truncated var table");
  }
  if (!r.FitsRemaining(var_count, 17)) {  // name len + origin + uid
    return DataLoss("var table larger than payload");
  }
  for (uint64_t i = 0; i < var_count; ++i) {
    FactsLogVar v;
    if (!r.Str(&v.name) || !r.U8(&v.origin) || !r.U64(&v.uid)) {
      return DataLoss("truncated var record");
    }
    if (v.origin > static_cast<uint8_t>(VarOrigin::kUnknown)) {
      return DataLoss("invalid var origin");
    }
    log.vars.push_back(std::move(v));
  }

  uint64_t expr_count;
  if (!r.U64(&expr_count)) {
    return DataLoss("truncated expr table");
  }
  // Smallest node on the wire is kVar: kind + var index. Indices are u32,
  // so a count past that range can never self-reference consistently.
  if (!r.FitsRemaining(expr_count, 5) || expr_count > UINT32_MAX) {
    return DataLoss("expr table larger than payload");
  }
  for (uint64_t i = 0; i < expr_count; ++i) {
    FactsLogExpr e;
    if (!r.U8(&e.kind)) {
      return DataLoss("truncated expr record");
    }
    switch (e.kind) {
      case static_cast<uint8_t>(ExprKind::kConst):
        if (!r.I64(&e.value)) {
          return DataLoss("truncated expr record");
        }
        break;
      case static_cast<uint8_t>(ExprKind::kVar):
        if (!r.U32(&e.var)) {
          return DataLoss("truncated expr record");
        }
        if (e.var >= log.vars.size()) {
          return DataLoss("expr var index out of range");
        }
        break;
      case static_cast<uint8_t>(ExprKind::kBinary):
        if (!r.U8(&e.bin_op) || !r.U32(&e.a) || !r.U32(&e.b)) {
          return DataLoss("truncated expr record");
        }
        if (e.bin_op > static_cast<uint8_t>(BinOp::kLeU)) {
          return DataLoss("invalid binary operator");
        }
        if (e.a >= i || e.b >= i) {
          return DataLoss("expr child index out of range");
        }
        break;
      case static_cast<uint8_t>(ExprKind::kSelect):
        if (!r.U32(&e.a) || !r.U32(&e.b) || !r.U32(&e.c)) {
          return DataLoss("truncated expr record");
        }
        if (e.a >= i || e.b >= i || e.c >= i) {
          return DataLoss("expr child index out of range");
        }
        break;
      default:
        return DataLoss("invalid expr kind");
    }
    log.exprs.push_back(e);
  }

  uint64_t core_count;
  if (!r.U64(&core_count)) {
    return DataLoss("truncated core table");
  }
  if (!r.FitsRemaining(core_count, 8)) {
    return DataLoss("core table larger than payload");
  }
  for (uint64_t i = 0; i < core_count; ++i) {
    uint64_t elems;
    if (!r.U64(&elems)) {
      return DataLoss("truncated core record");
    }
    if (elems == 0) {
      return DataLoss("empty promoted core");
    }
    if (!r.FitsRemaining(elems, 4)) {
      return DataLoss("core larger than payload");
    }
    std::vector<uint32_t> core;
    core.reserve(static_cast<size_t>(elems));
    for (uint64_t j = 0; j < elems; ++j) {
      uint32_t idx;
      if (!r.U32(&idx)) {
        return DataLoss("truncated core record");
      }
      if (idx >= log.exprs.size()) {
        return DataLoss("core expr index out of range");
      }
      core.push_back(idx);
    }
    log.cores.push_back(std::move(core));
  }

  uint64_t key_count;
  if (!r.U64(&key_count)) {
    return DataLoss("truncated key table");
  }
  if (!r.FitsRemaining(key_count, 21)) {
    return DataLoss("key table larger than payload");
  }
  for (uint64_t i = 0; i < key_count; ++i) {
    FactsLog::Key k;
    uint8_t with_core;
    if (!r.U64(&k.set_key) || !r.U32(&k.distinct) || !r.U8(&with_core) ||
        !r.U64(&k.solver_fingerprint)) {
      return DataLoss("truncated key record");
    }
    if (with_core > 1) {
      return DataLoss("invalid key with_core flag");
    }
    k.with_core = with_core != 0;
    log.keys.push_back(k);
  }
  if (!r.AtEnd()) {
    return DataLoss("trailing bytes after fact log");
  }
  return log;
}

std::string FactsLogSummary(const FactsLog& log) {
  size_t core_elems = 0;
  for (const std::vector<uint32_t>& core : log.cores) {
    core_elems += core.size();
  }
  // Distinct solver fingerprints across keys (a healthy log has at most
  // one; more would mean mixed solver configurations).
  std::vector<uint64_t> fps;
  for (const FactsLog::Key& k : log.keys) {
    if (std::find(fps.begin(), fps.end(), k.solver_fingerprint) == fps.end()) {
      fps.push_back(k.solver_fingerprint);
    }
  }
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "fact log v%" PRIu32 "\n", log.version);
  out += buf;
  std::snprintf(buf, sizeof(buf), "module fingerprint: 0x%016" PRIx64 "\n",
                log.module_fingerprint);
  out += buf;
  std::snprintf(buf, sizeof(buf), "vars: %zu\nexprs: %zu\n", log.vars.size(),
                log.exprs.size());
  out += buf;
  std::snprintf(buf, sizeof(buf), "promoted cores: %zu (%zu elements)\n",
                log.cores.size(), core_elems);
  out += buf;
  std::snprintf(buf, sizeof(buf), "promoted keys: %zu\n", log.keys.size());
  out += buf;
  for (uint64_t fp : fps) {
    std::snprintf(buf, sizeof(buf), "  solver fingerprint: 0x%016" PRIx64 "\n",
                  fp);
    out += buf;
  }
  return out;
}

}  // namespace res
