#include "recovery/log_format.h"

#include <cstdio>
#include <cstring>

namespace mvcc {

namespace {

// CRC-32C lookup table (Castagnoli polynomial 0x1EDC6F41, reflected
// 0x82F63B78), generated once at first use.
const uint32_t* Crc32cTable() {
  static uint32_t table[256];
  static const bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      table[i] = crc;
    }
    return true;
  }();
  (void)init;
  return table;
}

// Explicit little-endian packing (the documented on-disk byte order),
// independent of host endianness.
void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 8);
}

uint32_t GetU32(std::string_view in, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  return v;
}

uint64_t GetU64(std::string_view in, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  return v;
}

bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = GetU64(in, *pos);
  *pos += 8;
  return true;
}

// CRC over the covered header fields (length + tn, 12 bytes) chained
// with the payload. The covered bytes are packed little-endian exactly
// as they appear on disk, so the CRC is host-endianness-independent.
uint32_t RecordCrc(uint32_t length, uint64_t tn, std::string_view payload) {
  std::string covered;
  covered.reserve(12);
  PutU32(&covered, length);
  PutU64(&covered, tn);
  uint32_t crc = Crc32c(covered.data(), covered.size());
  return Crc32c(payload.data(), payload.size(), crc);
}

// True when a record with a valid CRC starts anywhere at or after `pos`
// — the probe that separates a torn tail (nothing valid after the bad
// record) from interior corruption (valid records after it). The probe
// must not trust the corrupt record's own length field to hop to the
// next boundary: the corruption may BE in that field (a flipped bit
// there fails the CRC and derails a length-based resync), so it slides
// forward one byte at a time until a CRC-valid record parses. Sliding
// is O(bytes^2) worst case but only runs once, on an already-doomed
// segment, to pick between salvage and fail-stop.
bool AnyValidRecordFrom(std::string_view image, size_t pos) {
  for (; pos + kWalRecordHeaderBytes <= image.size(); ++pos) {
    const uint32_t length = GetU32(image, pos);
    const size_t payload_at = pos + kWalRecordHeaderBytes;
    if (length > image.size() || payload_at + length > image.size()) {
      continue;  // cannot be a whole record here; keep sliding
    }
    const uint64_t tn = GetU64(image, pos + 4);
    const uint32_t stored = GetU32(image, pos + 12);
    const std::string_view payload = image.substr(payload_at, length);
    if (RecordCrc(length, tn, payload) == stored) return true;
  }
  return false;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const uint32_t* table = Crc32cTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string EncodeCommitBatchPayload(const CommitBatch& batch) {
  std::string out;
  PutU64(&out, batch.txn);
  PutU64(&out, batch.tn);
  PutU64(&out, batch.writes.size());
  for (const LoggedWrite& w : batch.writes) {
    PutU64(&out, w.key);
    PutU64(&out, w.value.size());
    out.append(w.value);
  }
  return out;
}

bool DecodeCommitBatchPayload(std::string_view payload, CommitBatch* batch) {
  size_t pos = 0;
  uint64_t writes = 0;
  if (!ReadU64(payload, &pos, &batch->txn) ||
      !ReadU64(payload, &pos, &batch->tn) ||
      !ReadU64(payload, &pos, &writes)) {
    return false;
  }
  batch->writes.clear();
  batch->writes.reserve(writes);
  for (uint64_t i = 0; i < writes; ++i) {
    LoggedWrite write;
    uint64_t len = 0;
    if (!ReadU64(payload, &pos, &write.key) ||
        !ReadU64(payload, &pos, &len) || pos + len > payload.size()) {
      return false;
    }
    write.value.assign(payload.data() + pos, len);
    pos += len;
    batch->writes.push_back(std::move(write));
  }
  return pos == payload.size();
}

std::string EncodeWalRecord(const CommitBatch& batch) {
  const std::string payload = EncodeCommitBatchPayload(batch);
  std::string out;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  PutU32(&out, length);
  PutU64(&out, batch.tn);
  PutU32(&out, RecordCrc(length, batch.tn, payload));
  out.append(payload);
  return out;
}

std::string EncodeWalSegmentHeader() {
  std::string out;
  PutU64(&out, kWalSegmentMagic);
  return out;
}

WalScanResult ScanWalSegment(std::string_view image, const std::string& name) {
  WalScanResult res;
  if (image.size() < kWalSegmentHeaderBytes ||
      image.find_first_not_of('\0') == std::string_view::npos) {
    // A crash between creating the segment and syncing its magic leaves
    // a short (possibly empty) file, or a prepared one whose blocks
    // never reached the disk: torn, salvageable to zero records.
    res.tail = WalTailState::kTorn;
    res.detail = name + ": partial segment header";
    return res;
  }
  if (GetU64(image, 0) != kWalSegmentMagic) {
    res.tail = WalTailState::kCorrupt;
    res.detail = name + ": bad segment magic";
    return res;
  }
  size_t pos = kWalSegmentHeaderBytes;
  res.valid_bytes = pos;
  while (pos < image.size()) {
    // Nothing but zeros from a record boundary on is the unwritten rest
    // of a prepared segment: its clean end. No record starts with a zero
    // byte run to EOF (a record's length is never 0), so this never
    // hides a written record; a non-zero byte anywhere after falls
    // through to the torn/corrupt rules below.
    if (image.find_first_not_of('\0', pos) == std::string_view::npos) {
      return res;
    }
    if (pos + kWalRecordHeaderBytes > image.size()) {
      res.tail = WalTailState::kTorn;
      res.detail = name + ": partial record header at offset " +
                   std::to_string(pos);
      return res;
    }
    const uint32_t length = GetU32(image, pos);
    const uint64_t tn = GetU64(image, pos + 4);
    const uint32_t stored = GetU32(image, pos + 12);
    const size_t payload_at = pos + kWalRecordHeaderBytes;
    if (payload_at + length > image.size()) {
      // Usually a genuinely torn final append — but a bit flip in the
      // length field of an interior record also lands here (a huge
      // length "extends past the end"). Probe for valid records after
      // this position before trusting the torn-tail reading.
      if (AnyValidRecordFrom(image, pos + 1)) {
        res.tail = WalTailState::kCorrupt;
        res.detail = name + ": record at offset " + std::to_string(pos) +
                     " extends past end of segment but valid records " +
                     "follow — corrupt length field";
      } else {
        res.tail = WalTailState::kTorn;
        res.detail = name + ": record at offset " + std::to_string(pos) +
                     " extends past end of segment";
      }
      return res;
    }
    const std::string_view payload = image.substr(payload_at, length);
    if (RecordCrc(length, tn, payload) != stored) {
      // Decision rule: valid records AFTER a bad one mean the middle of
      // the log rotted — fail-stop. A bad record with nothing valid
      // after it is the torn tail of the final (crashed) append. The
      // probe starts right after the record's header position rather
      // than length-hopping: the length field is part of what just
      // failed verification and cannot be trusted for resync.
      if (AnyValidRecordFrom(image, pos + 1)) {
        res.tail = WalTailState::kCorrupt;
        res.detail = name + ": CRC mismatch at offset " +
                     std::to_string(pos) +
                     " (tn " + std::to_string(tn) +
                     ") followed by valid records — interior corruption";
      } else {
        res.tail = WalTailState::kTorn;
        res.detail = name + ": CRC mismatch in final record at offset " +
                     std::to_string(pos);
      }
      return res;
    }
    CommitBatch batch;
    if (!DecodeCommitBatchPayload(payload, &batch)) {
      res.tail = WalTailState::kCorrupt;
      res.detail = name + ": CRC-valid record at offset " +
                   std::to_string(pos) + " fails to decode";
      return res;
    }
    res.batches.push_back(std::move(batch));
    pos = payload_at + length;
    res.valid_bytes = pos;
  }
  return res;
}

std::string WalSegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

uint64_t ParseWalSegmentFileName(const std::string& name) {
  if (name.size() != 18 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(14, 4, ".log") != 0) {
    return 0;
  }
  uint64_t seq = 0;
  for (size_t i = 4; i < 14; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace mvcc
