#ifndef MVCC_RECOVERY_LOG_FORMAT_H_
#define MVCC_RECOVERY_LOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "recovery/log_record.h"

namespace mvcc {

// On-disk WAL framing (see DESIGN.md "On-disk record format").
//
// A segment file is an 8-byte magic followed by a sequence of records:
//
//   [u32 length][u64 tn][u32 crc32c]  <- 16-byte record header
//   [payload: `length` bytes]         <- serialized CommitBatch
//
// crc32c covers the header's length+tn fields plus the payload, so a
// flipped bit anywhere in the record — including its own length field's
// low bits — fails verification. All integers little-endian.
//
// A segment made by rotation is prepared: created at its full target
// size, zero-filled and synced before any record lands in it, so a
// record write never changes the file's size. Only zero bytes from a
// record boundary to EOF are that unwritten space: the segment's clean
// end (valid_bytes stops there, tail stays kClean).
//
// The scanner classifies the first invalid record it meets:
//   - nothing but partial bytes to EOF       -> torn tail (a crash mid-
//     append); the valid prefix is salvageable.
//   - parseable records after it             -> interior corruption (bit
//     rot, misdirected write); fail-stop, the log cannot be trusted.
// The "records after it" probe slides forward byte by byte looking for
// a CRC-valid record; it never resynchronizes via the invalid record's
// own length field, which is itself suspect (a flipped bit there must
// not turn interior corruption into a salvageable-looking tail).

inline constexpr uint64_t kWalSegmentMagic = 0x4D564343534731ULL;  // "MVCCSG1"
inline constexpr size_t kWalSegmentHeaderBytes = 8;
inline constexpr size_t kWalRecordHeaderBytes = 16;

// CRC-32C (Castagnoli), bitwise-reflected, software table version.
// `seed` chains partial computations: Crc32c(b, Crc32c(a)) == Crc32c(ab).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// Serialized CommitBatch payload (no framing).
std::string EncodeCommitBatchPayload(const CommitBatch& batch);
bool DecodeCommitBatchPayload(std::string_view payload, CommitBatch* batch);

// Full framed record: header + payload.
std::string EncodeWalRecord(const CommitBatch& batch);

// New segment file prefix (just the magic).
std::string EncodeWalSegmentHeader();

enum class WalTailState {
  kClean,    // every byte belongs to a valid record
  kTorn,     // invalid suffix with no valid records after it
  kCorrupt,  // invalid record followed by at least one valid record,
             // or a bad/missing segment magic
};

struct WalScanResult {
  std::vector<CommitBatch> batches;  // the valid prefix, in append order
  // Byte length of the valid prefix (segment header + whole records):
  // where the next record goes. Truncating the file here drops exactly
  // the invalid suffix, or a prepared segment's zero tail.
  uint64_t valid_bytes = 0;
  WalTailState tail = WalTailState::kClean;
  std::string detail;  // human-readable diagnosis for non-clean tails
};

// Scans one segment image front to back, verifying every CRC.
// `name` only labels diagnostics.
WalScanResult ScanWalSegment(std::string_view image, const std::string& name);

// Segment file naming: "wal-0000000001.log".
std::string WalSegmentFileName(uint64_t seq);
// Returns the sequence number, or 0 if `name` is not a segment file
// (sequence numbers start at 1).
uint64_t ParseWalSegmentFileName(const std::string& name);

}  // namespace mvcc

#endif  // MVCC_RECOVERY_LOG_FORMAT_H_
