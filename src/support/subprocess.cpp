#include "support/subprocess.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/common.hpp"
#include "support/failpoint.hpp"

#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace sdl::support {

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
    if (this != &other) {
        close_pipes();
        pid_ = std::exchange(other.pid_, -1);
        stdin_fd_ = std::exchange(other.stdin_fd_, -1);
        stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    }
    return *this;
}

void ChildProcess::close_stdin() noexcept {
    if (stdin_fd_ >= 0) {
        ::close(stdin_fd_);
        stdin_fd_ = -1;
    }
}

void ChildProcess::close_pipes() noexcept {
    close_stdin();
    if (stdout_fd_ >= 0) {
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
}

ChildProcess spawn_child(const std::vector<std::string>& argv,
                         const std::vector<std::string>& extra_env) {
    check(!argv.empty(), "spawn_child needs at least argv[0]");
    if (failpoint::armed()) {
        // Simulates fork/exec resource exhaustion (EAGAIN, pipe limits)
        // before any fd is created, so nothing needs cleanup.
        failpoint::maybe_fail("subprocess.spawn", "subprocess");
    }
    int to_child[2];    // parent writes -> child stdin
    int from_child[2];  // child stdout -> parent reads
    if (::pipe(to_child) != 0) {
        throw Error("subprocess", std::string("pipe failed: ") + std::strerror(errno));
    }
    if (::pipe(from_child) != 0) {
        const int saved = errno;
        ::close(to_child[0]);
        ::close(to_child[1]);
        throw Error("subprocess", std::string("pipe failed: ") + std::strerror(saved));
    }

    // The exec arrays must be built before fork(): the child may only
    // use async-signal-safe calls between fork and exec (no allocation).
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const std::string& a : argv) c_argv.push_back(const_cast<char*>(a.c_str()));
    c_argv.push_back(nullptr);

    // Inherited environment minus entries extra_env overrides, plus the
    // overrides themselves.
    std::vector<std::string> env_storage;
    std::vector<char*> c_env;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string_view entry(*e);
        const std::size_t eq = entry.find('=');
        const std::string_view name = entry.substr(0, eq);
        bool overridden = false;
        for (const std::string& extra : extra_env) {
            if (extra.size() > name.size() && extra[name.size()] == '=' &&
                std::string_view(extra).substr(0, name.size()) == name) {
                overridden = true;
                break;
            }
        }
        if (!overridden) c_env.push_back(*e);
    }
    env_storage.assign(extra_env.begin(), extra_env.end());
    for (std::string& extra : env_storage) c_env.push_back(extra.data());
    c_env.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        throw Error("subprocess", std::string("fork failed: ") + std::strerror(saved));
    }
    if (pid == 0) {
        // Child: wire the pipes to stdin/stdout, drop the parent ends.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        ::execve(c_argv[0], c_argv.data(), c_env.data());
        _exit(127);  // exec failed; parent sees EOF + status 127
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    return ChildProcess(pid, to_child[1], from_child[0]);
}

bool write_line_fd(int fd, std::string_view line) noexcept {
    if (fd < 0) return false;
    std::string framed(line);
    framed += '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
        const ssize_t n = ::write(fd, framed.data() + written, framed.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;  // EPIPE: peer is gone
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

void kill_hard(const ChildProcess& child) noexcept {
    if (child.valid()) ::kill(static_cast<pid_t>(child.pid()), SIGKILL);
}

int wait_exit(const ChildProcess& child) noexcept {
    if (!child.valid()) return -1;
    int status = 0;
    for (;;) {
        const pid_t r = ::waitpid(static_cast<pid_t>(child.pid()), &status, 0);
        if (r >= 0) return status;
        if (errno != EINTR) return -1;
    }
}

std::vector<bool> poll_readable(const std::vector<int>& fds, int timeout_ms) {
    std::vector<struct pollfd> pfds;
    pfds.reserve(fds.size());
    for (const int fd : fds) {
        // Negative fds are legal in poll(2): ignored, revents = 0 —
        // exactly what we want for already-dead workers.
        pfds.push_back({fd, POLLIN, 0});
    }
    std::vector<bool> readable(fds.size(), false);
    // EINTR is not a timeout: a signal landing mid-poll must not eat the
    // heartbeat window (the coordinator would mis-declare workers dead),
    // so retry with whatever budget remains.
    // sdlbench-lint: allow(steady-clock): operational timeout bookkeeping for the EINTR retry, never part of a result artifact
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point::max();
    int remaining_ms = timeout_ms;
    for (;;) {
        const int rc = ::poll(pfds.data(), pfds.size(), remaining_ms);
        if (rc > 0) break;
        if (rc == 0) return readable;  // genuine timeout: nothing ready
        if (errno != EINTR) return readable;
        if (timeout_ms >= 0) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now());
            if (left.count() <= 0) return readable;
            remaining_ms = static_cast<int>(left.count());
        }
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
        // HUP/ERR count as readable: read() returns 0/-1 without
        // blocking, which is how EOF on a dead worker is discovered.
        readable[i] = (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    }
    return readable;
}

long read_some(int fd, LineBuffer& buf) {
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n > 0) buf.feed(chunk, static_cast<std::size_t>(n));
        return static_cast<long>(n);
    }
}

void ignore_sigpipe() noexcept { ::signal(SIGPIPE, SIG_IGN); }

std::optional<std::string> LineBuffer::next_line() {
    const std::size_t nl = buffer_.find('\n', start_);
    if (nl == std::string::npos) {
        // Drop consumed bytes so the buffer doesn't grow unboundedly
        // across a long campaign.
        if (start_ > 0) {
            buffer_.erase(0, start_);
            start_ = 0;
        }
        return std::nullopt;
    }
    std::string line = buffer_.substr(start_, nl - start_);
    start_ = nl + 1;
    return line;
}

}  // namespace sdl::support
