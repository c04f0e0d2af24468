/**
 * @file
 * The client side of the closed loop: one `hyparc serve` child process
 * on a pair of pipes, driven one admission batch at a time.
 *
 * There is one pipe each way and no extra thread. A batch is written as
 * its request lines plus the blank line that closes an admission batch;
 * the client then reads every response line before it sends the next
 * batch, so each logical client has exactly one request outstanding.
 */

#ifndef SERVEBENCH_CLIENT_HH
#define SERVEBENCH_CLIENT_HH

#include <chrono>
#include <string>
#include <vector>

#include <sys/types.h>

#include "workloads.hh"

namespace servebench {

using Clock = std::chrono::steady_clock;

/** A running `hyparc serve`; stopped (and reaped) on destruction. */
class ServerProcess
{
  public:
    /** Spawn `argv[0]` with `argv`; fatal when the spawn fails. */
    explicit ServerProcess(const std::vector<std::string> &argv);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Write all of `bytes` to the server's stdin; false on a broken
     *  pipe. */
    bool send(const std::string &bytes);

    /** Read one response line (without the newline); false on EOF or
     *  when no full line arrives within `timeoutMs`. */
    bool readLine(std::string &line, int timeoutMs);

    /** The server's utime + stime so far, from /proc/<pid>/stat. */
    double cpuSeconds() const;

    /** The server's peak resident set (VmHWM) in MiB. */
    double peakRssMb() const;

    /** Close stdin so the server drains and exits; wait for it (kill
     *  after a grace period). Returns the exit status, or -1 when the
     *  process did not exit normally. Idempotent. */
    int stop();

  private:
    pid_t pid_ = -1;
    int inFd_ = -1;  //!< server stdin (we write)
    int outFd_ = -1; //!< server stdout (we read)
    std::string buf_;
    std::size_t pos_ = 0;
};

/** Timings and response lines of one admission batch. */
struct Exchange
{
    std::vector<std::string> responses; //!< one per request received
    double roundTripUs = 0.0;           //!< write to last response line
    std::vector<double> latencyUs;      //!< per request received
};

/** Send `batch` as one admission batch and read its responses. A short
 *  `responses` means the server broke the protocol. */
Exchange exchange(ServerProcess &server, const Batch &batch);

} // namespace servebench

#endif // SERVEBENCH_CLIENT_HH
