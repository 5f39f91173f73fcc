#include "common/coding.h"

#include <cstring>

namespace tcob {

namespace {

Status Underflow(const char* what) {
  return Status::Corruption(std::string("decode underflow: ") + what);
}

}  // namespace

void EncodeFixed16(char* buf, uint16_t v) {
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
}

void EncodeFixed32(char* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void EncodeFixed64(char* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

uint16_t DecodeFixed16(const char* buf) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(buf);
  return static_cast<uint16_t>(b[0]) | (static_cast<uint16_t>(b[1]) << 8);
}

uint32_t DecodeFixed32(const char* buf) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(buf);
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

uint64_t DecodeFixed64(const char* buf) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(buf);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

Status GetFixed16(Slice* input, uint16_t* v) {
  if (input->size() < 2) return Underflow("fixed16");
  *v = DecodeFixed16(input->data());
  input->RemovePrefix(2);
  return Status::OK();
}

Status GetFixed32(Slice* input, uint32_t* v) {
  if (input->size() < 4) return Underflow("fixed32");
  *v = DecodeFixed32(input->data());
  input->RemovePrefix(4);
  return Status::OK();
}

Status GetFixed64(Slice* input, uint64_t* v) {
  if (input->size() < 8) return Underflow("fixed64");
  *v = DecodeFixed64(input->data());
  input->RemovePrefix(8);
  return Status::OK();
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarsint64(std::string* dst, int64_t v) {
  // Zigzag: small magnitudes (of either sign) stay small.
  uint64_t enc = (static_cast<uint64_t>(v) << 1) ^
                 static_cast<uint64_t>(v >> 63);
  PutVarint64(dst, enc);
}

Status GetVarint64(Slice* input, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint8_t byte = static_cast<uint8_t>((*input)[0]);
    input->RemovePrefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Underflow("varint64");
}

Status GetVarint32(Slice* input, uint32_t* v) {
  uint64_t v64 = 0;
  TCOB_RETURN_NOT_OK(GetVarint64(input, &v64));
  if (v64 > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(v64);
  return Status::OK();
}

Status GetVarsint64(Slice* input, int64_t* v) {
  uint64_t enc = 0;
  TCOB_RETURN_NOT_OK(GetVarint64(input, &enc));
  *v = static_cast<int64_t>((enc >> 1) ^ (~(enc & 1) + 1));
  return Status::OK();
}

void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len = 0;
  TCOB_RETURN_NOT_OK(GetVarint64(input, &len));
  if (input->size() < len) return Underflow("length-prefixed bytes");
  *value = Slice(input->data(), static_cast<size_t>(len));
  input->RemovePrefix(static_cast<size_t>(len));
  return Status::OK();
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

Status GetDouble(Slice* input, double* v) {
  uint64_t bits = 0;
  TCOB_RETURN_NOT_OK(GetFixed64(input, &bits));
  memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

void PutComparableU64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * (7 - i))) & 0xff);
  }
  dst->append(buf, 8);
}

uint64_t DecodeComparableU64(const char* buf) {
  const uint8_t* b = reinterpret_cast<const uint8_t*>(buf);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

void PutComparableI64(std::string* dst, int64_t v) {
  PutComparableU64(dst, static_cast<uint64_t>(v) ^ (1ull << 63));
}

int64_t DecodeComparableI64(const char* buf) {
  return static_cast<int64_t>(DecodeComparableU64(buf) ^ (1ull << 63));
}

void PutComparableDouble(std::string* dst, double v) {
  uint64_t bits;
  memcpy(&bits, &v, sizeof(bits));
  // Positive doubles: flip sign bit. Negative doubles: flip all bits.
  if (bits & (1ull << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ull << 63);
  }
  PutComparableU64(dst, bits);
}

double DecodeComparableDouble(const char* buf) {
  uint64_t bits = DecodeComparableU64(buf);
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double v;
  memcpy(&v, &bits, sizeof(v));
  return v;
}

int VarintLength(uint64_t v) {
  int n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace tcob
