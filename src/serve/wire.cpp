#include "serve/wire.hpp"

#include <errno.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

namespace cudanp::serve {

namespace {

std::int64_t monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         ts.tv_nsec / 1000000;
}

/// Reads exactly `n` bytes with a poll-based deadline. deadline_ms < 0
/// blocks forever.
ReadStatus read_exact(int fd, char* data, std::size_t n,
                      std::int64_t deadline_ms) {
  while (n > 0) {
    if (deadline_ms >= 0) {
      std::int64_t remaining = deadline_ms - monotonic_ms();
      if (remaining <= 0) return ReadStatus::kTimeout;
      pollfd p{fd, POLLIN, 0};
      int pr = ::poll(&p, 1,
                      static_cast<int>(remaining > 1000000 ? 1000000
                                                           : remaining));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadStatus::kError;
      }
      if (pr == 0) continue;  // re-check the deadline
    }
    ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // O_NONBLOCK fd raced a spurious poll wakeup. With a deadline
        // the loop re-polls; without one, block here until readable.
        if (deadline_ms < 0) {
          pollfd p{fd, POLLIN, 0};
          (void)::poll(&p, 1, -1);
        }
        continue;
      }
      return ReadStatus::kError;
    }
    if (r == 0) return ReadStatus::kEof;
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

std::string frame_buffer(char type, std::string_view payload) {
  std::string buf;
  buf.reserve(5 + payload.size());
  buf.push_back(type);
  auto len = static_cast<std::uint32_t>(payload.size());
  char hdr[4] = {static_cast<char>(len & 0xff),
                 static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>((len >> 16) & 0xff),
                 static_cast<char>((len >> 24) & 0xff)};
  buf.append(hdr, 4);
  buf.append(payload.data(), payload.size());
  return buf;
}

}  // namespace

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t w = ::write(fd, data.data(), data.size());
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

bool write_frame(int fd, char type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return false;
  // One contiguous buffer per frame: a single writer thread per fd plus
  // whole-frame writes keep frames from interleaving on the pipe.
  std::string buf = frame_buffer(type, payload);
  return write_all(fd, buf);
}

bool write_frame_deadline(int fd, char type, std::string_view payload,
                          int timeout_ms) {
  if (payload.size() > kMaxFramePayload) return false;
  std::string buf = frame_buffer(type, payload);
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  const char* data = buf.data();
  std::size_t n = buf.size();
  while (n > 0) {
    std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) return false;
    pollfd p{fd, POLLOUT, 0};
    int pr = ::poll(&p, 1, static_cast<int>(remaining));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) continue;  // re-check the deadline
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

ReadStatus read_frame(int fd, Frame* out, int timeout_ms) {
  const std::int64_t deadline =
      timeout_ms < 0 ? -1 : monotonic_ms() + timeout_ms;
  char hdr[5];
  ReadStatus s = read_exact(fd, hdr, sizeof(hdr), deadline);
  if (s != ReadStatus::kOk) return s;
  out->type = hdr[0];
  std::uint32_t len = static_cast<std::uint8_t>(hdr[1]) |
                      (static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(hdr[2]))
                       << 8) |
                      (static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(hdr[3]))
                       << 16) |
                      (static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(hdr[4]))
                       << 24);
  if (len > kMaxFramePayload) return ReadStatus::kError;
  out->payload.resize(len);
  if (len == 0) return ReadStatus::kOk;
  return read_exact(fd, out->payload.data(), len, deadline);
}

}  // namespace cudanp::serve
