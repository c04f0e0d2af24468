#include "client.hh"

#include <cerrno>
#include <csignal>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/logging.hh"

extern char **environ;

namespace servebench {

namespace {

/** How long a batch may take before the server counts as hung. */
constexpr int kResponseTimeoutMs = 60000;

/** How long a stopping server may drain before it is killed. */
constexpr auto kStopGrace = std::chrono::seconds(10);

double
microsSince(const Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

} // namespace

ServerProcess::ServerProcess(const std::vector<std::string> &argv)
{
    int toServer[2];
    int fromServer[2];
    if (pipe2(toServer, O_CLOEXEC) != 0)
        hypar::util::fatal("pipe2 failed");
    if (pipe2(fromServer, O_CLOEXEC) != 0) {
        close(toServer[0]);
        close(toServer[1]);
        hypar::util::fatal("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, toServer[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, fromServer[1], STDOUT_FILENO);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(toServer[0]);
    close(fromServer[1]);
    inFd_ = toServer[1];
    outFd_ = fromServer[0];
    if (rc != 0) {
        pid_ = -1;
        close(inFd_);
        close(outFd_);
        hypar::util::fatal("cannot spawn " + argv[0]);
    }
}

ServerProcess::~ServerProcess() { stop(); }

bool
ServerProcess::send(const std::string &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            write(inFd_, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
ServerProcess::readLine(std::string &line, int timeoutMs)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        const std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            line.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            if (pos_ == buf_.size()) {
                buf_.clear();
                pos_ = 0;
            }
            return true;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd pfd{outFd_, POLLIN, 0};
        const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return false;
        char chunk[65536];
        const ssize_t n = read(outFd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        if (pos_ > 0) {
            buf_.erase(0, pos_);
            pos_ = 0;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

double
ServerProcess::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos)
        hypar::util::fatal("cannot read /proc/<pid>/stat of the server");
    std::istringstream fields(stat.substr(close + 1));
    std::string field;
    double ticks = 0.0;
    for (int f = 3; f <= 15 && fields >> field; ++f)
        if (f >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
ServerProcess::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    hypar::util::fatal("no VmHWM in /proc/<pid>/status of the server");
}

int
ServerProcess::stop()
{
    if (pid_ < 0)
        return -1;
    close(inFd_);
    const auto deadline = Clock::now() + kStopGrace;
    int status = 0;
    pid_t done = 0;
    while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (done == 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
    }
    close(outFd_);
    pid_ = -1;
    return done > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Exchange
exchange(ServerProcess &server, const Batch &batch)
{
    std::string bytes;
    for (const Request &r : batch)
        bytes += r.line() + "\n";
    bytes += "\n"; // blank line: close the admission batch

    Exchange ex;
    const auto t0 = Clock::now();
    if (!server.send(bytes))
        return ex;
    std::string line;
    while (ex.responses.size() < batch.size() &&
           server.readLine(line, kResponseTimeoutMs)) {
        ex.latencyUs.push_back(microsSince(t0));
        ex.responses.push_back(line);
    }
    ex.roundTripUs = microsSince(t0);
    return ex;
}

} // namespace servebench
