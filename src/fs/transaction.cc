#include "fs/transaction.h"

namespace afc::fs {

void Transaction::write(ObjectId oid, std::uint64_t offset, Payload data) {
  TxOp op;
  op.type = TxOpType::kWrite;
  op.oid = std::move(oid);
  op.offset = offset;
  op.data = std::move(data);
  ops_.push_back(std::move(op));
}

void Transaction::omap_setkeys(ObjectId oid,
                               std::vector<std::pair<std::string, kv::Value>> kvs) {
  TxOp op;
  op.type = TxOpType::kOmapSetKeys;
  op.oid = std::move(oid);
  op.omap = std::move(kvs);
  ops_.push_back(std::move(op));
}

void Transaction::omap_rmkeyrange(ObjectId oid, std::string lo, std::string hi) {
  TxOp op;
  op.type = TxOpType::kOmapRmKeyRange;
  op.oid = std::move(oid);
  op.range_lo = std::move(lo);
  op.range_hi = std::move(hi);
  ops_.push_back(std::move(op));
}

void Transaction::setattrs(ObjectId oid,
                           std::vector<std::pair<std::string, kv::Value>> attrs) {
  TxOp op;
  op.type = TxOpType::kSetAttrs;
  op.oid = std::move(oid);
  op.attrs = std::move(attrs);
  ops_.push_back(std::move(op));
}

void Transaction::set_alloc_hint(ObjectId oid) {
  TxOp op;
  op.type = TxOpType::kSetAllocHint;
  op.oid = std::move(oid);
  ops_.push_back(std::move(op));
}

namespace {

// Little-endian primitive writers/readers for the encode()/decode() image.
// The image is host-side data (journal ring contents), never simulated I/O.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(std::uint8_t(v));
  out.push_back(std::uint8_t(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_str(std::vector<std::uint8_t>& out, std::string_view s) {
  put_u16(out, std::uint16_t(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_payload(std::vector<std::uint8_t>& out, const Payload& p) {
  if (p.is_virtual()) {
    put_u8(out, 0);
    put_u64(out, p.size());
    put_u64(out, p.seed());
    put_u64(out, p.stream_offset());
  } else {
    put_u8(out, 1);
    auto bytes = p.materialize();
    put_u64(out, bytes.size());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
}

void put_value(std::vector<std::uint8_t>& out, const kv::Value& v) {
  if (v.is_virtual()) {
    put_u8(out, 0);
    put_u32(out, v.virtual_len());
  } else {
    put_u8(out, 1);
    const std::string_view bytes = v.data();
    put_u32(out, std::uint32_t(bytes.size()));
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
}

void put_kvs(std::vector<std::uint8_t>& out,
             const std::vector<std::pair<std::string, kv::Value>>& kvs) {
  put_u16(out, std::uint16_t(kvs.size()));
  for (const auto& [k, v] : kvs) {
    put_str(out, k);
    put_value(out, v);
  }
}

// Exact image sizes of the writers above, so encode() allocates once.
std::size_t str_size(std::string_view s) { return 2 + s.size(); }

std::size_t payload_size(const Payload& p) { return p.is_virtual() ? 1 + 24 : 1 + 8 + p.size(); }

std::size_t kvs_size(const std::vector<std::pair<std::string, kv::Value>>& kvs) {
  std::size_t n = 2;
  for (const auto& [k, v] : kvs) n += str_size(k) + 1 + 4 + (v.is_virtual() ? 0 : v.data().size());
  return n;
}

std::size_t op_size(const TxOp& op) {
  std::size_t n = 1 + 4 + str_size(op.oid.name()) + 8;
  switch (op.type) {
    case TxOpType::kWrite:
      return n + payload_size(op.data);
    case TxOpType::kOmapSetKeys:
      return n + kvs_size(op.omap);
    case TxOpType::kOmapRmKeyRange:
      return n + str_size(op.range_lo) + str_size(op.range_hi);
    case TxOpType::kSetAttrs:
      return n + kvs_size(op.attrs);
    case TxOpType::kSetAllocHint:
      break;
  }
  return n;
}

struct Cursor {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || left < n) { ok = false; return false; }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    std::uint8_t v = *p;
    p += 1; left -= 1;
    return v;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = std::uint16_t(p[0]) | std::uint16_t(p[1]) << 8;
    p += 2; left -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
    p += 4; left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
    p += 8; left -= 8;
    return v;
  }
  std::string_view str_view() {
    std::size_t n = u16();
    if (!take(n)) return {};
    std::string_view s(reinterpret_cast<const char*>(p), n);
    p += n; left -= n;
    return s;
  }
  std::string str() { return std::string(str_view()); }
  Payload payload() {
    std::uint8_t tag = u8();
    if (tag == 0) {
      std::uint64_t len = u64(), seed = u64(), off = u64();
      if (!ok) return {};
      return Payload::pattern(len, seed, off);
    }
    if (tag != 1) { ok = false; return {}; }
    std::uint64_t n = u64();
    if (!take(n)) return {};
    std::vector<std::uint8_t> bytes(p, p + n);
    p += n; left -= n;
    return Payload::bytes(std::move(bytes));
  }
  kv::Value value() {
    std::uint8_t tag = u8();
    if (tag == 0) return kv::Value::virt(u32());
    if (tag != 1) { ok = false; return {}; }
    std::size_t n = u32();
    if (!take(n)) return {};
    std::string_view s(reinterpret_cast<const char*>(p), n);
    p += n; left -= n;
    return kv::Value::real(s);
  }
  std::vector<std::pair<std::string, kv::Value>> kvs() {
    std::size_t n = u16();
    std::vector<std::pair<std::string, kv::Value>> out;
    out.reserve(ok ? n : 0);
    for (std::size_t i = 0; ok && i < n; ++i) {
      auto k = str();
      auto v = value();
      out.emplace_back(std::move(k), std::move(v));
    }
    return out;
  }
};

}  // namespace

std::vector<std::uint8_t> Transaction::encode() const {
  std::size_t total = 4;
  for (const auto& op : ops_) total += op_size(op);
  std::vector<std::uint8_t> out;
  out.reserve(total);
  put_u32(out, std::uint32_t(ops_.size()));
  for (const auto& op : ops_) {
    put_u8(out, std::uint8_t(op.type));
    put_u32(out, op.oid.pg);
    put_str(out, op.oid.name());
    put_u64(out, op.offset);
    switch (op.type) {
      case TxOpType::kWrite:
        put_payload(out, op.data);
        break;
      case TxOpType::kOmapSetKeys:
        put_kvs(out, op.omap);
        break;
      case TxOpType::kOmapRmKeyRange:
        put_str(out, op.range_lo);
        put_str(out, op.range_hi);
        break;
      case TxOpType::kSetAttrs:
        put_kvs(out, op.attrs);
        break;
      case TxOpType::kSetAllocHint:
        break;
    }
  }
  return out;
}

std::optional<Transaction> Transaction::decode(const std::uint8_t* data,
                                               std::size_t len) {
  Cursor c{data, len};
  std::uint32_t n = c.u32();
  Transaction tx;
  for (std::uint32_t i = 0; c.ok && i < n; ++i) {
    auto type = TxOpType(c.u8());
    const std::uint32_t pg = c.u32();
    const std::string_view name = c.str_view();
    ObjectId oid = c.ok ? ObjectId(pg, name) : ObjectId();
    std::uint64_t offset = c.u64();
    switch (type) {
      case TxOpType::kWrite:
        tx.write(std::move(oid), offset, c.payload());
        break;
      case TxOpType::kOmapSetKeys:
        tx.omap_setkeys(std::move(oid), c.kvs());
        break;
      case TxOpType::kOmapRmKeyRange: {
        auto lo = c.str();
        auto hi = c.str();
        tx.omap_rmkeyrange(std::move(oid), std::move(lo), std::move(hi));
        break;
      }
      case TxOpType::kSetAttrs:
        tx.setattrs(std::move(oid), c.kvs());
        break;
      case TxOpType::kSetAllocHint:
        tx.set_alloc_hint(std::move(oid));
        break;
      default:
        c.ok = false;
        break;
    }
  }
  if (!c.ok || c.left != 0) return std::nullopt;
  return tx;
}

std::uint64_t Transaction::encoded_bytes() const {
  std::uint64_t total = 64;  // transaction header
  for (const auto& op : ops_) {
    total += 32 + op.oid.name().size();
    switch (op.type) {
      case TxOpType::kWrite:
        total += op.data.size();
        break;
      case TxOpType::kOmapSetKeys:
        for (const auto& [k, v] : op.omap) total += k.size() + v.size() + 8;
        break;
      case TxOpType::kOmapRmKeyRange:
        total += op.range_lo.size() + op.range_hi.size();
        break;
      case TxOpType::kSetAttrs:
        for (const auto& [k, v] : op.attrs) total += k.size() + v.size() + 8;
        break;
      case TxOpType::kSetAllocHint:
        total += 16;
        break;
    }
  }
  return total;
}

}  // namespace afc::fs
