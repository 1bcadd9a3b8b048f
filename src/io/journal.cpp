#include "io/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/fs_fault.h"

namespace easybo::io {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw StorageError(what + " " + path + ": " + std::strerror(errno));
}

/// Consults the fault seam (io/fs_fault.h) for \p op on \p path. Applies
/// a stall immediately; returns the (possibly faulting) action for the
/// call site to apply — short writes and torn renames need site-specific
/// handling, everything else is "set errno and io_fail".
FsFaultAction fault_gate(FsOp op, const std::string& path) {
  FsFaultAction action = fs_fault_check(op, path);
  if (action.stall_seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(action.stall_seconds));
  }
  return action;
}

/// The common case: fault means fail outright, nothing site-specific.
void fault_gate_simple(FsOp op, const std::string& path, const char* what) {
  const FsFaultAction action = fault_gate(op, path);
  if (action.err != 0) {
    errno = action.err;
    io_fail(std::string(what) + " (injected fault)", path);
  }
}

/// fsync the directory containing \p path so a rename into it is durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = (slash == std::string::npos)
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // not fatal: the data file itself is synced
  ::fsync(fd);
  ::close(fd);
}

void fsync_file(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) io_fail("cannot flush", path);
  fault_gate_simple(FsOp::Fsync, path, "cannot fsync");
  if (::fsync(::fileno(file)) != 0) io_fail("cannot fsync", path);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string frame_line(std::string_view payload) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", crc32(payload));
  std::string line = hex;
  line.push_back(' ');
  line.append(payload);
  return line;
}

bool unframe_line(std::string_view line, std::string& payload_out) {
  if (line.size() < 10 || line[8] != ' ') return false;
  std::uint32_t want = 0;
  for (int i = 0; i < 8; ++i) {
    const char h = line[static_cast<std::size_t>(i)];
    want <<= 4;
    if (h >= '0' && h <= '9') want |= static_cast<std::uint32_t>(h - '0');
    else if (h >= 'a' && h <= 'f')
      want |= static_cast<std::uint32_t>(h - 'a' + 10);
    else return false;
  }
  const std::string_view payload = line.substr(9);
  if (crc32(payload) != want) return false;
  payload_out.assign(payload);
  return true;
}

JournalReadResult read_journal(const std::string& path) {
  const std::string content = read_file(path);
  JournalReadResult out;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    const std::string_view line(content.data() + pos,
                                (terminated ? nl : content.size()) - pos);
    std::string payload;
    const bool valid = terminated && unframe_line(line, payload);
    const std::size_t next = terminated ? nl + 1 : content.size();
    if (!valid) {
      if (next >= content.size()) {
        // Torn tail: the one place a crash mid-append can leave damage.
        out.torn_tail = true;
        return out;
      }
      throw CheckpointError(
          "journal corrupted: line " + std::to_string(line_no + 1) + " of " +
          path + " failed its checksum (interior damage, not a torn tail)");
    }
    out.payloads.push_back(std::move(payload));
    out.valid_bytes = next;
    pos = next;
    ++line_no;
  }
  return out;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::open(const std::string& path, long truncate_to) {
  close();
  if (truncate_to >= 0) {
    fault_gate_simple(FsOp::Truncate, path, "cannot truncate journal");
    // Truncating a journal that does not exist yet to zero is a fresh
    // start, not an error; the fopen("ab") below creates it.
    if (::truncate(path.c_str(), static_cast<off_t>(truncate_to)) != 0 &&
        !(errno == ENOENT && truncate_to == 0)) {
      io_fail("cannot truncate journal", path);
    }
  }
  fault_gate_simple(FsOp::Open, path, "cannot open journal");
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) io_fail("cannot open journal", path);
  path_ = path;
}

void JournalWriter::append(std::string_view payload) {
  EASYBO_REQUIRE(file_ != nullptr, "JournalWriter::append before open");
  std::string line = frame_line(payload);
  line.push_back('\n');
  // A failed append must leave the journal EXACTLY as it was: an fsync
  // that reports ENOSPC may still have let the full line reach the file,
  // and a torn write leaves half of it — either way a later resume would
  // replay a mutation whose caller was told it failed. Every failure
  // path below truncates back to the pre-append length (prior appends
  // were flushed, so fstat sees the true end). Only a crash can leave a
  // torn tail now, which is exactly the case read_journal tolerates.
  struct stat pre {};
  const bool have_size = ::fstat(::fileno(file_), &pre) == 0;
  const auto rollback = [&] {
    const int saved = errno;
    // Flush (or at least drop into the kernel) anything still buffered
    // so a later fclose cannot resurrect bytes past the truncation.
    std::fflush(file_);
    std::clearerr(file_);
    if (have_size) {
      ::ftruncate(::fileno(file_), pre.st_size);
    }
    errno = saved;
  };
  const FsFaultAction fault = fault_gate(FsOp::Write, path_);
  if (fault.err != 0) {
    if (fault.short_write) {
      // Half the framed line reaches the file before the error surfaces
      // — what a dying disk does. The rollback below repairs it; the
      // injection proves the repair happens.
      std::fwrite(line.data(), 1, line.size() / 2, file_);
      std::fflush(file_);
    }
    errno = fault.err;
    rollback();
    io_fail("cannot append to journal (injected fault)", path_);
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    rollback();
    io_fail("cannot append to journal", path_);
  }
  try {
    fsync_file(file_, path_);
  } catch (...) {
    rollback();
    throw;
  }
}

void JournalWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string read_file(const std::string& path) {
  fault_gate_simple(FsOp::Open, path, "cannot open");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) io_fail("cannot open", path);
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) {
    content.append(buf, n);
  }
  const bool bad = std::ferror(file) != 0;
  std::fclose(file);
  if (bad) io_fail("cannot read", path);
  const FsFaultAction fault = fault_gate(FsOp::Read, path);
  if (fault.err != 0) {
    errno = fault.err;
    io_fail("cannot read (injected fault)", path);
  }
  return content;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  fault_gate_simple(FsOp::Open, tmp, "cannot create");
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) io_fail("cannot create", tmp);
  const FsFaultAction wfault = fault_gate(FsOp::Write, tmp);
  if (wfault.err != 0) {
    if (wfault.short_write) {
      std::fwrite(content.data(), 1, content.size() / 2, file);
    }
    std::fclose(file);
    errno = wfault.err;
    io_fail("cannot write (injected fault)", tmp);
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  if (!wrote) {
    std::fclose(file);
    io_fail("cannot write", tmp);
  }
  fsync_file(file, tmp);
  std::fclose(file);
  const FsFaultAction rfault = fault_gate(FsOp::Rename, path);
  if (rfault.err != 0) {
    if (rfault.torn_rename) {
      // A non-atomic filesystem replacing the destination with a prefix
      // of the new content — the half-written snapshot resume must never
      // accept. (POSIX rename cannot do this; the injection exists so the
      // refusal path is tested.)
      std::FILE* torn = std::fopen(path.c_str(), "wb");
      if (torn != nullptr) {
        std::fwrite(content.data(), 1, content.size() / 2, torn);
        std::fclose(torn);
      }
    }
    errno = rfault.err;
    io_fail("cannot rename into place (injected fault)", path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    io_fail("cannot rename into place", path);
  }
  fsync_parent_dir(path);
}

void remove_file(const std::string& path) {
  if (std::remove(path.c_str()) == 0) {
    fsync_parent_dir(path);
  } else if (errno != ENOENT) {
    io_fail("cannot remove", path);
  }
}

}  // namespace easybo::io
