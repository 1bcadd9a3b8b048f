#pragma once
/// \file journal.h
/// \brief Durable, checksummed line storage for crash-safe runs.
///
/// Two primitives back the checkpoint/resume subsystem
/// (docs/checkpoint-format.md):
///
///  - an append-only JSONL *journal*: one fsync'd line per record, each
///    framed as "CRC32HEX payload\n" so that torn writes (a SIGKILL mid
///    line) are detected. The reader tolerates exactly one torn line at
///    the *tail* — that is the only place a crash can tear — and reports
///    how many bytes to truncate before appending resumes. A corrupt
///    *interior* line means the file was damaged after the fact and is a
///    hard error (CheckpointError).
///
///  - an *atomic snapshot*: write-tmp + fsync + rename(2) + directory
///    fsync, so the snapshot file is always either the old complete
///    version or the new complete version, never a mixture.
///
/// This layer knows nothing about BO; the record schemas live in
/// src/bo/checkpoint.h.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace easybo::io {

/// A damaged or mismatched checkpoint/journal file. Distinct from plain
/// easybo::Error so front ends can map corruption to its own exit code.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

/// A checkpoint file the operating system failed to open, read, write,
/// sync or rename: the storage failed, not the files' content.
class StorageError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of \p data.
std::uint32_t crc32(std::string_view data);

/// Frames \p payload as "xxxxxxxx payload" (8 lowercase hex CRC digits,
/// one space). The newline is added by the writer.
std::string frame_line(std::string_view payload);

/// Unframes one line (no trailing newline). Returns false when the frame
/// is malformed or the checksum does not match — the caller decides
/// whether that is a tolerable torn tail or a hard error.
bool unframe_line(std::string_view line, std::string& payload_out);

/// Result of reading a framed journal file.
struct JournalReadResult {
  std::vector<std::string> payloads;  ///< valid records, file order
  bool torn_tail = false;   ///< the final line was torn/unterminated
  std::size_t valid_bytes = 0;  ///< file prefix covering the valid records
};

/// Reads every framed line of \p path. A final line that is unterminated
/// or fails its checksum is dropped and reported via torn_tail (the
/// SIGKILL-mid-write case); a bad line anywhere *before* the last throws
/// CheckpointError naming the line. Throws StorageError when the file
/// cannot be opened.
JournalReadResult read_journal(const std::string& path);

/// Append-only writer over framed lines. Every append is flushed and
/// fsync'd before returning — a record handed to append() survives any
/// subsequent crash (that is the journal's whole contract).
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens \p path for appending. When \p truncate_to is nonnegative the
  /// file is first truncated to that many bytes — how resume drops a torn
  /// tail before writing new records after it. Creates the file when
  /// absent. Throws StorageError on I/O failure.
  void open(const std::string& path, long truncate_to = -1);

  /// Frames, writes, flushes and fsyncs one record line. Throws
  /// StorageError with the file as it was before the call.
  void append(std::string_view payload);

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Reads a whole file into a string. Throws StorageError when the file
/// cannot be opened or read.
std::string read_file(const std::string& path);

/// True when \p path names an existing regular file.
bool file_exists(const std::string& path);

/// Atomically replaces \p path with \p content: writes "<path>.tmp",
/// fflush + fsync, rename over \p path, then fsyncs the directory so the
/// rename itself is durable. Throws StorageError on I/O failure.
void atomic_write_file(const std::string& path, std::string_view content);

/// Removes \p path (+ directory fsync, so the removal is durable); an
/// absent file is not an error. Throws StorageError on any other failure.
void remove_file(const std::string& path);

}  // namespace easybo::io
