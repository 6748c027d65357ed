// Crash-safe file IO primitives for reports and journals.
//
// Two write disciplines cover every durable artifact sdlbench produces:
//   * atomic_write — whole documents (campaign.json, workcell.yaml, CSVs)
//     go to a temporary sibling first and are renamed into place, so a
//     reader (or a resumed run) never sees a torn file;
//   * AppendWriter — the campaign cell journal appends one record per
//     line through an O_APPEND stream, flushed per record, so a killed
//     process loses at most the final, partially written line.
// split_complete_lines is the matching reader side of AppendWriter (the
// log reader in campaign/checkpoint.hpp is built on it), and read_file
// the one whole-file reader.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sdl::support {

/// Writes `content` to `path` atomically: the bytes land in a temporary
/// file in the same directory, which is fsynced and then renamed over
/// `path` only after a complete write. A crash mid-write leaves the old
/// file (or no file) intact — never a partial one. Throws Error("io")
/// on failure.
void atomic_write(const std::string& path, std::string_view content);

/// The whole file at `path`, byte for byte. Throws Error("io") "cannot
/// open <what> '<path>'" when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path, std::string_view what);

/// Append-only line journal on an O_APPEND descriptor. append_line()
/// issues exactly one unbuffered write(2) for the whole record + '\n'
/// followed by fdatasync, so records from concurrent appender
/// *processes* never interleave mid-line (O_APPEND writes to regular
/// files are atomic), every returned append has reached stable storage
/// (survives machine death, not just a process kill), and a kill leaves
/// at most one truncated final line — which journal readers detect and
/// drop. Not internally synchronized across *threads*:
/// callers serialize appends (campaign::run_cells serializes its
/// completion hook).
class AppendWriter {
public:
    /// Opens `path` for appending, creating it if absent.
    /// Throws Error("io") when the file cannot be opened.
    explicit AppendWriter(std::string path);
    ~AppendWriter();

    AppendWriter(const AppendWriter&) = delete;
    AppendWriter& operator=(const AppendWriter&) = delete;
    AppendWriter(AppendWriter&& other) noexcept;
    AppendWriter& operator=(AppendWriter&& other) noexcept;

    /// Appends `line` + '\n' in a single unbuffered write. `line` must
    /// not itself contain '\n' (one record per line is the journal
    /// invariant). Throws Error("io") on failure — including a short
    /// write, which tears the final journal line (the reader's torn-tail
    /// recovery then drops it).
    void append_line(std::string_view line);

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    void close() noexcept;

    std::string path_;
    int fd_ = -1;
};

/// Bytes read from an AppendWriter journal, split at the last newline.
struct CompleteLines {
    /// Every '\n'-terminated line, newline stripped, in file order (empty
    /// lines included). Views into the bytes passed to
    /// split_complete_lines, valid while those bytes are.
    std::vector<std::string_view> lines;
    /// Offset of the unterminated remainder: the input size when the
    /// bytes end in '\n' (or are empty). After a kill the remainder is
    /// the torn final record; a live reader re-reads from here later.
    std::size_t tail = 0;
};

/// The reader side of AppendWriter's one-record-per-line contract: only
/// complete lines are records, so callers decide what an unterminated
/// remainder means (drop it after a crash, wait for it while tailing).
[[nodiscard]] CompleteLines split_complete_lines(std::string_view bytes);

}  // namespace sdl::support
