// Child-process and pipe I/O helpers for multi-process orchestration.
//
// The fleet coordinator (campaign/fleet.hpp) runs one worker process per
// lease queue and speaks a line protocol over the worker's stdin/stdout
// pipes. These are the POSIX primitives underneath: spawn a child with
// both pipes attached, push whole lines down a descriptor in a single
// write(2), reassemble lines from partial reads, poll many descriptors
// with a deadline, and kill/reap children.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sdl::support {

/// A spawned child with pipes to its stdin/stdout (stderr is inherited,
/// so worker diagnostics land on the parent's stderr). Owns the two
/// descriptors and closes them on destruction; the process itself is NOT
/// killed or reaped by the destructor — callers own the lifecycle via
/// kill_hard()/wait_exit() so a coordinator can decide between a
/// graceful stop and a SIGKILL.
class ChildProcess {
public:
    ChildProcess() = default;
    ChildProcess(long pid, int stdin_fd, int stdout_fd) noexcept
        : pid_(pid), stdin_fd_(stdin_fd), stdout_fd_(stdout_fd) {}
    ~ChildProcess() { close_pipes(); }

    ChildProcess(const ChildProcess&) = delete;
    ChildProcess& operator=(const ChildProcess&) = delete;
    ChildProcess(ChildProcess&& other) noexcept { *this = std::move(other); }
    ChildProcess& operator=(ChildProcess&& other) noexcept;

    [[nodiscard]] long pid() const noexcept { return pid_; }
    [[nodiscard]] int stdin_fd() const noexcept { return stdin_fd_; }
    [[nodiscard]] int stdout_fd() const noexcept { return stdout_fd_; }
    [[nodiscard]] bool valid() const noexcept { return pid_ > 0; }

    /// Closes the write side of the child's stdin — the child's next
    /// read sees EOF (the "no more leases" signal). Idempotent.
    void close_stdin() noexcept;
    /// Closes both pipe ends. Idempotent.
    void close_pipes() noexcept;

private:
    long pid_ = -1;
    int stdin_fd_ = -1;
    int stdout_fd_ = -1;
};

/// Forks and execs `argv` (argv[0] is the binary path, PATH not
/// searched) with fresh stdin/stdout pipes; `extra_env` entries
/// ("NAME=value") are appended to the inherited environment, overriding
/// any inherited definition of the same NAME. Throws Error("subprocess")
/// when the pipes or the fork fail; exec failure inside the child exits
/// 127 (the caller sees EOF + that exit status).
[[nodiscard]] ChildProcess spawn_child(const std::vector<std::string>& argv,
                                       const std::vector<std::string>& extra_env = {});

/// Writes `line` + '\n' to `fd` as one full write (looping on partial
/// writes/EINTR). Returns false when the peer is gone (EPIPE — callers
/// must have SIGPIPE ignored, see ignore_sigpipe) or the descriptor
/// errors; a protocol writer treats that as "worker died", not a crash.
bool write_line_fd(int fd, std::string_view line) noexcept;

/// SIGKILL — for dead-or-hung workers whose cells are being re-leased.
/// The kill must be unconditional: a merely-slow worker that later
/// completed a re-leased cell would journal it twice. No-op on an
/// invalid pid.
void kill_hard(const ChildProcess& child) noexcept;

/// Blocking waitpid. Returns the raw wait status (or -1 if the child
/// cannot be reaped). Call exactly once per spawned child to avoid
/// zombies.
int wait_exit(const ChildProcess& child) noexcept;

/// Reassembles '\n'-terminated lines from arbitrary read chunks. The
/// terminator is stripped; an unterminated tail is held until more bytes
/// arrive (the pipe analogue of the journal's torn-tail discipline).
class LineBuffer {
public:
    void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
    /// Next complete line, or nullopt when only a partial tail remains.
    [[nodiscard]] std::optional<std::string> next_line();

private:
    std::string buffer_;
    std::size_t start_ = 0;
};

/// poll(2) over `fds` for readability. Returns a parallel vector:
/// true when fds[i] is readable or at EOF/error (a read() will not
/// block). Times out after `timeout_ms` (all false); negative means
/// wait forever. Entries of -1 are skipped (never readable).
[[nodiscard]] std::vector<bool> poll_readable(const std::vector<int>& fds,
                                              int timeout_ms);

/// Reads whatever is available from `fd` (up to a few KiB) into `buf`.
/// Returns the byte count, 0 on EOF, -1 on error. Does not block if
/// called after poll_readable reported the descriptor ready.
long read_some(int fd, LineBuffer& buf);

/// Ignores SIGPIPE process-wide so a write to a dead worker's pipe
/// surfaces as EPIPE (write_line_fd -> false) instead of killing the
/// coordinator. Call once at tool startup before spawning children.
void ignore_sigpipe() noexcept;

}  // namespace sdl::support
