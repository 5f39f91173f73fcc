#include "wal/wal.h"

#include <cstring>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"

namespace tcob {

namespace {

constexpr uint32_t kFrameHeader = 8;  // len + crc
constexpr uint32_t kMaxFrame = 64u << 20;

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, IoEnv* env) {
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(path));
  TCOB_ASSIGN_OR_RETURN(wal->file_, env->OpenFile(path));
  TCOB_ASSIGN_OR_RETURN(wal->write_pos_, wal->file_->Size());
  return wal;
}

WriteAheadLog::~WriteAheadLog() = default;

Status WriteAheadLog::Append(const Slice& payload) {
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Checksum32(payload.data(), payload.size()));
  frame.append(payload.data(), payload.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    TCOB_RETURN_NOT_OK(health_);
    Status st = file_->WriteAt(write_pos_, frame);
    if (!st.ok()) {
      health_ = st;
      return st;
    }
    write_pos_ += frame.size();
  }
  appended_.Increment();
  appended_bytes_.Add(frame.size());
  TraceEmit(trace_, TraceEventType::kWalAppend, payload.size());
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lk(mu_);
  TCOB_RETURN_NOT_OK(health_);
  TraceEmit(trace_, TraceEventType::kWalFsyncBegin);
  Status st = file_->Sync();
  if (!st.ok()) health_ = st;
  if (st.ok()) syncs_.Increment();
  TraceEmit(trace_, TraceEventType::kWalFsyncEnd);
  return st;
}

Status WriteAheadLog::ReadAll(
    const std::function<Result<bool>(const Slice&)>& fn,
    WalReadStats* stats) const {
  std::lock_guard<std::mutex> lk(mu_);
  WalReadStats local;
  bool stopped_early = false;
  TCOB_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  uint64_t pos = 0;
  std::vector<char> buf;
  while (pos + kFrameHeader <= size) {
    char header[kFrameHeader];
    TCOB_ASSIGN_OR_RETURN(size_t hn, file_->ReadAt(pos, header, kFrameHeader));
    if (hn != kFrameHeader) break;  // torn tail
    uint32_t len = DecodeFixed32(header);
    uint32_t crc = DecodeFixed32(header + 4);
    if (len > kMaxFrame || pos + kFrameHeader + len > size) {
      break;  // torn tail: frame extends past the end of the file
    }
    buf.resize(len);
    if (len > 0) {
      TCOB_ASSIGN_OR_RETURN(size_t pn,
                            file_->ReadAt(pos + kFrameHeader, buf.data(), len));
      if (pn != len) break;  // torn tail
    }
    if (Checksum32(buf.data(), len) != crc) {
      local.tail_was_corrupt = true;
      break;
    }
    local.bytes_replayed = pos + kFrameHeader + len;
    ++local.records;
    TCOB_ASSIGN_OR_RETURN(bool keep_going, fn(Slice(buf.data(), len)));
    pos += kFrameHeader + len;
    if (!keep_going) {
      stopped_early = true;
      break;
    }
  }
  // An early stop by fn leaves intact records unread; only count bytes
  // the framing itself rejected.
  local.dropped_tail_bytes = stopped_early ? 0 : size - local.bytes_replayed;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  std::lock_guard<std::mutex> lk(mu_);
  TCOB_RETURN_NOT_OK(health_);
  Status st = file_->Truncate(0);
  if (st.ok()) st = file_->Sync();
  if (!st.ok()) {
    health_ = st;
    return st;
  }
  write_pos_ = 0;
  truncates_.Increment();
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::SizeBytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return file_->Size();
}

}  // namespace tcob
