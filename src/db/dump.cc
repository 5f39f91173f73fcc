#include "db/dump.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "common/coding.h"
#include "db/database.h"

namespace tcob {

namespace {

constexpr uint32_t kDumpMagic = 0x54434244;  // "TCBD"
constexpr uint32_t kDumpVersion = 1;

Status WriteAll(const std::string& path, const std::string& bytes) {
  std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (!f) return Status::IOError("open " + tmp);
  size_t n = fwrite(bytes.data(), 1, bytes.size(), f);
  if (n != bytes.size() || fflush(f) != 0) {
    fclose(f);
    return Status::IOError("write " + tmp);
  }
  fclose(f);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp);
  }
  return Status::OK();
}

Result<std::string> ReadAll(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("dump file " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

}  // namespace

Result<std::string> Database::Dump() {
  std::string out;
  PutFixed32(&out, kDumpMagic);
  PutFixed32(&out, kDumpVersion);
  PutLengthPrefixed(&out, catalog_.Serialize());
  PutVarsint64(&out, now_);

  // Atom versions, grouped by type. Store scan order is a physical
  // artifact (heap order, cluster order, ...), so records are sorted by
  // (atom id, valid begin) before encoding: the same logical content
  // dumps to the same bytes under every storage strategy.
  std::vector<const AtomTypeDef*> types = catalog_.AtomTypes();
  PutVarint32(&out, static_cast<uint32_t>(types.size()));
  for (const AtomTypeDef* type : types) {
    PutVarint32(&out, type->id);
    std::vector<AttrType> schema = type->AttrTypes();
    std::vector<AtomVersion> collected;
    TCOB_RETURN_NOT_OK(store_->ScanVersions(
        *type, Interval::All(), [&](const AtomVersion& v) -> Result<bool> {
          collected.push_back(v);
          return true;
        }));
    std::sort(collected.begin(), collected.end(),
              [](const AtomVersion& a, const AtomVersion& b) {
                if (a.id != b.id) return a.id < b.id;
                return a.valid.begin < b.valid.begin;
              });
    PutVarint64(&out, collected.size());
    for (const AtomVersion& v : collected) {
      TCOB_RETURN_NOT_OK(EncodeAtomVersion(schema, v, &out));
    }
  }

  // Link intervals, grouped by link type, sorted by (from, to, begin).
  std::vector<const LinkTypeDef*> links = catalog_.LinkTypes();
  PutVarint32(&out, static_cast<uint32_t>(links.size()));
  for (const LinkTypeDef* link : links) {
    PutVarint32(&out, link->id);
    std::vector<std::tuple<AtomId, AtomId, Interval>> collected;
    TCOB_RETURN_NOT_OK(links_->ForEachLink(
        *link,
        [&](AtomId from, AtomId to, const Interval& valid) -> Result<bool> {
          collected.emplace_back(from, to, valid);
          return true;
        }));
    std::sort(collected.begin(), collected.end(),
              [](const auto& a, const auto& b) {
                if (std::get<0>(a) != std::get<0>(b)) {
                  return std::get<0>(a) < std::get<0>(b);
                }
                if (std::get<1>(a) != std::get<1>(b)) {
                  return std::get<1>(a) < std::get<1>(b);
                }
                return std::get<2>(a) < std::get<2>(b);
              });
    PutVarint64(&out, collected.size());
    for (const auto& [from, to, valid] : collected) {
      PutVarint64(&out, from);
      PutVarint64(&out, to);
      PutVarsint64(&out, valid.begin);
      PutVarsint64(&out, valid.end);
    }
  }
  return out;
}

Status ExportDump(Database* db, const std::string& path) {
  TCOB_ASSIGN_OR_RETURN(std::string bytes, db->Dump());
  return WriteAll(path, bytes);
}

Status ImportDump(Database* db, const std::string& path) {
  if (!db->catalog_.AtomTypes().empty()) {
    return Status::InvalidArgument(
        "import target must be an empty database");
  }
  TCOB_ASSIGN_OR_RETURN(std::string bytes, ReadAll(path));
  Slice in(bytes);
  uint32_t magic, version;
  TCOB_RETURN_NOT_OK(GetFixed32(&in, &magic));
  if (magic != kDumpMagic) return Status::Corruption("dump magic");
  TCOB_RETURN_NOT_OK(GetFixed32(&in, &version));
  if (version != kDumpVersion) {
    return Status::Corruption("dump version " + std::to_string(version));
  }
  Slice catalog_bytes;
  TCOB_RETURN_NOT_OK(GetLengthPrefixed(&in, &catalog_bytes));
  TCOB_ASSIGN_OR_RETURN(db->catalog_, Catalog::Deserialize(catalog_bytes));
  TCOB_RETURN_NOT_OK(
      db->catalog_.SaveToFile(db->env_, db->dir_ + "/catalog.tcob"));
  Timestamp clock;
  TCOB_RETURN_NOT_OK(GetVarsint64(&in, &clock));

  // Atom histories: regroup per atom, sort, and commit each atom's
  // history as one batch of logical ops so WAL, indexes and watermarks
  // are all maintained. The batch folds the rule over its own ops, so a
  // re-insert after a gap sees the DELETE that closed the gap.
  uint32_t n_types;
  TCOB_RETURN_NOT_OK(GetVarint32(&in, &n_types));
  for (uint32_t s = 0; s < n_types; ++s) {
    uint32_t type_id;
    TCOB_RETURN_NOT_OK(GetVarint32(&in, &type_id));
    TCOB_ASSIGN_OR_RETURN(const AtomTypeDef* type,
                          db->catalog_.GetAtomType(type_id));
    std::vector<AttrType> schema = type->AttrTypes();
    uint64_t count;
    TCOB_RETURN_NOT_OK(GetVarint64(&in, &count));
    std::map<AtomId, std::vector<AtomVersion>> by_atom;
    for (uint64_t i = 0; i < count; ++i) {
      TCOB_ASSIGN_OR_RETURN(AtomVersion v, DecodeAtomVersion(schema, &in));
      by_atom[v.id].push_back(std::move(v));
    }
    for (auto& [id, versions] : by_atom) {
      std::sort(versions.begin(), versions.end(),
                [](const AtomVersion& a, const AtomVersion& b) {
                  return a.valid.begin < b.valid.begin;
                });
      Database::Writer batch;
      auto add = [&](WalOpType type, Timestamp from,
                     std::vector<Value> attrs) {
        WalOp& op = batch.ops.emplace_back();
        op.type = type;
        op.atom_id = id;
        op.atom_type = type_id;
        op.valid_from = from;
        op.attrs = std::move(attrs);
      };
      Timestamp prev_end = kMinTimestamp;
      for (size_t i = 0; i < versions.size(); ++i) {
        const AtomVersion& v = versions[i];
        if (i > 0 && v.valid.begin != prev_end) {
          // Gap: the previous version was closed by a delete.
          add(WalOpType::kDeleteAtom, prev_end, {});
        }
        add(i == 0 || v.valid.begin != prev_end ? WalOpType::kInsertAtom
                                                : WalOpType::kUpdateAtom,
            v.valid.begin, v.attrs);
        prev_end = v.valid.end;
      }
      if (!versions.back().valid.open_ended()) {
        add(WalOpType::kDeleteAtom, versions.back().valid.end, {});
      }
      TCOB_RETURN_NOT_OK(db->Write(&batch));
    }
  }

  // Link intervals, per pair in time order.
  uint32_t n_links;
  TCOB_RETURN_NOT_OK(GetVarint32(&in, &n_links));
  for (uint32_t s = 0; s < n_links; ++s) {
    uint32_t link_id;
    TCOB_RETURN_NOT_OK(GetVarint32(&in, &link_id));
    uint64_t count;
    TCOB_RETURN_NOT_OK(GetVarint64(&in, &count));
    std::map<std::pair<AtomId, AtomId>, std::vector<Interval>> by_pair;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t from, to;
      Interval valid;
      TCOB_RETURN_NOT_OK(GetVarint64(&in, &from));
      TCOB_RETURN_NOT_OK(GetVarint64(&in, &to));
      TCOB_RETURN_NOT_OK(GetVarsint64(&in, &valid.begin));
      TCOB_RETURN_NOT_OK(GetVarsint64(&in, &valid.end));
      by_pair[{from, to}].push_back(valid);
    }
    for (auto& [pair, intervals] : by_pair) {
      std::sort(intervals.begin(), intervals.end());
      Database::Writer batch;
      auto add = [&](WalOpType type, Timestamp at) {
        WalOp& op = batch.ops.emplace_back();
        op.type = type;
        op.link_type = link_id;
        op.from_id = pair.first;
        op.to_id = pair.second;
        op.valid_from = at;
      };
      for (const Interval& valid : intervals) {
        add(WalOpType::kConnect, valid.begin);
        if (!valid.open_ended()) add(WalOpType::kDisconnect, valid.end);
      }
      TCOB_RETURN_NOT_OK(db->Write(&batch));
    }
  }

  db->now_ = clock;
  return db->Checkpoint();
}

}  // namespace tcob
