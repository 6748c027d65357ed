#include "support/atomic_io.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "support/common.hpp"
#include "support/failpoint.hpp"

namespace sdl::support {

namespace {

// Makes a directory-entry change (create, rename) itself durable: data
// fsyncs alone don't persist the *name*, so after a power loss the file
// could vanish despite every write having been acknowledged.
void fsync_parent_dir(const std::string& path) noexcept {
    const std::string dir = std::filesystem::path(path).parent_path().string();
    const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

}  // namespace

void atomic_write(const std::string& path, std::string_view content) {
    // The temp name carries the pid (distinct concurrent processes) and a
    // process-wide sequence number (distinct concurrent threads), so no
    // two writers ever share a temp file; whoever renames last wins with
    // a complete document.
    static std::atomic<unsigned long> sequence{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    {
        // sdlbench-lint: allow(raw-artifact-write): this IS atomic_write — the raw stream targets the temp file the rename publishes
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file) throw Error("io", "cannot open '" + tmp + "' for writing");
        file.write(content.data(), static_cast<std::streamsize>(content.size()));
        file.flush();
        if (!file) {
            file.close();
            std::error_code ignored;
            std::filesystem::remove(tmp, ignored);
            throw Error("io", "failed writing '" + tmp + "'");
        }
    }
    // Injected faults discard the temp file like every real failure path:
    // the published name either keeps its old content or gains the new
    // complete document, never a partial one.
    const auto fail_and_discard_tmp = [&tmp](std::string_view site) {
        try {
            failpoint::maybe_fail(site, "io");
        } catch (...) {
            std::error_code ignored;
            std::filesystem::remove(tmp, ignored);
            throw;
        }
    };
    if (failpoint::armed()) fail_and_discard_tmp("atomic_io.fsync");
    // Push the temp file's bytes to stable storage before the rename
    // publishes it, so a machine crash cannot surface the new name with
    // empty/partial content.
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
    if (failpoint::armed()) fail_and_discard_tmp("atomic_io.rename");
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ignored;
        std::filesystem::remove(tmp, ignored);
        throw Error("io", "cannot rename '" + tmp + "' to '" + path +
                              "': " + ec.message());
    }
    fsync_parent_dir(path);  // make the rename itself durable
}

std::string read_file(const std::string& path, std::string_view what) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw Error("io", "cannot open " + std::string(what) + " '" + path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

AppendWriter::AppendWriter(std::string path) : path_(std::move(path)) {
    // O_APPEND: every write(2) lands atomically at the current end of
    // file, so records from concurrent appenders never interleave
    // mid-line — provided each record goes out in ONE write, which
    // append_line guarantees (no stdio buffering to split it).
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        throw Error("io", "cannot open journal '" + path_ + "' for appending");
    }
    fsync_parent_dir(path_);  // persist the O_CREAT entry
}

AppendWriter::~AppendWriter() { close(); }

void AppendWriter::close() noexcept {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

AppendWriter::AppendWriter(AppendWriter&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

AppendWriter& AppendWriter::operator=(AppendWriter&& other) noexcept {
    if (this != &other) {
        close();
        path_ = std::move(other.path_);
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void AppendWriter::append_line(std::string_view line) {
    check(line.find('\n') == std::string_view::npos,
          "journal records must be single lines");
    std::string record;
    record.reserve(line.size() + 1);
    record.append(line);
    record.push_back('\n');
    check(fd_ >= 0, "append_line on a moved-from AppendWriter");
    // One write(2) for the whole record; a short write (ENOSPC, a signal
    // mid-write) would tear the journal line, so treat it as a failure —
    // the reader's torn-tail recovery covers what got out. fdatasync
    // makes the record survive machine death, not just a process kill;
    // one sync per record is noise next to a cell's simulation time.
    //
    // journal.append_short_write=err(K) truly writes only the first K
    // bytes before failing, so the file really does hold a torn record —
    // the recovery property test exercises every K boundary this way.
    std::size_t to_write = record.size();
    bool injected_short = false;
    if (failpoint::armed()) {
        const failpoint::Fired fired = failpoint::evaluate(
            "journal.append_short_write", static_cast<long>(record.size()));
        if (fired.action != failpoint::Action::None) {
            injected_short = true;
            const long keep = fired.param;
            to_write = (keep >= 0 && static_cast<std::size_t>(keep) < to_write)
                           ? static_cast<std::size_t>(keep)
                           : 0;
        }
    }
    const ssize_t written = ::write(fd_, record.data(), to_write);
    bool ok = !injected_short && written == static_cast<ssize_t>(record.size());
    if (ok && failpoint::armed()) {
        // Fires after the full record hit the page cache but before it is
        // durable: the caller sees a failure for a record a later reader
        // may well observe intact. Recovery must tolerate both outcomes.
        failpoint::maybe_fail("journal.append_fsync", "io");
    }
    ok = ok && ::fdatasync(fd_) == 0;
    if (!ok) {
        throw Error("io", "failed appending to journal '" + path_ + "'");
    }
}

CompleteLines split_complete_lines(std::string_view bytes) {
    CompleteLines split;
    for (std::size_t nl = bytes.find('\n'); nl != std::string_view::npos;
         nl = bytes.find('\n', split.tail)) {
        split.lines.push_back(bytes.substr(split.tail, nl - split.tail));
        split.tail = nl + 1;
    }
    return split;
}

}  // namespace sdl::support
