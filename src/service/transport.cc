#include "service/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "common/tokens.h"

namespace saath::service {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --------------------------------------------------------------- Connection

bool Connection::send_all(const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a vanished peer must surface as a return value the
    // writer thread handles, not a process-wide SIGPIPE.
    const auto w =
        ::send(fd_.get(), data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool Connection::send_line(const std::string& line_without_newline) {
  std::string framed = line_without_newline;
  framed += '\n';
  return send_all(framed.data(), framed.size());
}

long Connection::recv_some(char* buf, std::size_t n) {
  for (;;) {
    const auto r = ::recv(fd_.get(), buf, n, 0);
    if (r < 0 && errno == EINTR) continue;
    return static_cast<long>(r);
  }
}

bool Connection::recv_ready(int timeout_ms) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
}

void Connection::shutdown_write() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

void Connection::shutdown_both() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

// ----------------------------------------------------------------- Listener

namespace {

/// Shared accept loop: polls the listening fd against a self-pipe so
/// close() can wake a blocked accept() from another thread (closing the
/// listening fd under a concurrent accept is not reliably a wakeup).
class PollListener : public Listener {
 public:
  PollListener(Fd listen_fd, std::string address)
      : listen_fd_(std::move(listen_fd)), address_(std::move(address)) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) fail("service: pipe");
    wake_read_ = Fd(pipe_fds[0]);
    wake_write_ = Fd(pipe_fds[1]);
  }

  ~PollListener() override { PollListener::close(); }

  std::optional<Connection> accept() override {
    for (;;) {
      pollfd fds[2];
      fds[0] = {listen_fd_.get(), POLLIN, 0};
      fds[1] = {wake_read_.get(), POLLIN, 0};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if ((fds[1].revents & POLLIN) != 0) return std::nullopt;  // close()d
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return std::nullopt;
      }
      return Connection(Fd(conn));
    }
  }

  void close() override {
    const std::lock_guard<std::mutex> lock(close_mu_);
    if (closed_) return;
    closed_ = true;
    const char byte = 'x';
    // Best-effort wake; the pipe write cannot meaningfully fail here.
    (void)!::write(wake_write_.get(), &byte, 1);
    cleanup();
  }

  [[nodiscard]] std::string address() const override { return address_; }

 protected:
  /// Carrier-specific teardown (Unix unlinks the socket file).
  virtual void cleanup() {}

  Fd listen_fd_;
  std::string address_;

 private:
  Fd wake_read_;
  Fd wake_write_;
  std::mutex close_mu_;
  bool closed_ = false;
};

class UnixListener final : public PollListener {
 public:
  UnixListener(Fd listen_fd, std::string path)
      : PollListener(std::move(listen_fd), "unix:" + path),
        path_(std::move(path)) {}
  ~UnixListener() override { close(); }

 protected:
  void cleanup() override { ::unlink(path_.c_str()); }

 private:
  std::string path_;
};

[[nodiscard]] sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("service: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

[[nodiscard]] std::unique_ptr<Listener> listen_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail("service: socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket from a killed daemon
  const sockaddr_un addr = unix_addr(path);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    fail("service: bind(" + path + ")");
  }
  if (::listen(fd.get(), 64) != 0) fail("service: listen(" + path + ")");
  return std::make_unique<UnixListener>(std::move(fd), path);
}

/// The port of a "tcp:PORT" address.
[[nodiscard]] std::uint16_t tcp_port(const std::string& address) {
  const auto port = parse_int(std::string_view(address).substr(4));
  if (port && *port >= 0 && *port <= 65535) {
    return static_cast<std::uint16_t>(*port);
  }
  throw std::runtime_error("service: bad tcp port in '" + address + "'");
}

[[nodiscard]] std::unique_ptr<Listener> listen_tcp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("service: socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    fail("service: bind(tcp:" + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), 64) != 0) fail("service: listen(tcp)");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    fail("service: getsockname");
  }
  return std::make_unique<PollListener>(
      std::move(fd), "tcp:" + std::to_string(ntohs(bound.sin_port)));
}

}  // namespace

std::unique_ptr<Listener> make_listener(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) {
    return listen_unix(address.substr(5));
  }
  if (address.rfind("tcp:", 0) == 0) {
    return listen_tcp(tcp_port(address));
  }
  throw std::runtime_error("service: bad listen address '" + address +
                           "' (want unix:/path or tcp:PORT)");
}

Connection dial(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) fail("service: socket(AF_UNIX)");
    const sockaddr_un addr = unix_addr(path);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      fail("service: connect(" + path + ")");
    }
    return Connection(std::move(fd));
  }
  if (address.rfind("tcp:", 0) == 0) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) fail("service: socket(AF_INET)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp_port(address));
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      fail("service: connect(" + address + ")");
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Connection(std::move(fd));
  }
  throw std::runtime_error("service: bad dial address '" + address + "'");
}

}  // namespace saath::service
