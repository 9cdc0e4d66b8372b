#include "telemetry_service/http_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>

#include "util/error.hpp"

namespace ltsc::telemetry_service {

namespace {

constexpr std::size_t k_max_request_bytes = 16 * 1024;

void set_nonblocking(int fd) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

/// Sends the whole buffer, polling for writability on EAGAIN.  Returns
/// false when the peer is gone.
bool send_all(int fd, const char* data, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            struct pollfd pfd = {fd, POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        return false;
    }
    return true;
}

}  // namespace

struct http_server::worker {
    struct connection {
        int fd = -1;
        std::string inbuf;
    };

    std::thread thread;
    int wake_pipe[2] = {-1, -1};
    std::mutex inbox_mutex;
    std::vector<int> inbox;
    std::vector<connection> conns;

    void push(int fd) {
        {
            std::lock_guard<std::mutex> lk(inbox_mutex);
            inbox.push_back(fd);
        }
        const char b = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &b, 1);
    }
};

http_server::http_server(std::uint16_t port, std::size_t worker_threads, http_handler handler)
    : handler_(std::move(handler)) {
    util::ensure(worker_threads > 0, "http_server: need at least one worker thread");
    util::ensure(static_cast<bool>(handler_), "http_server: null handler");

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw util::ltsc_error("http_server: socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1024) != 0) {
        ::close(listen_fd_);
        throw util::ltsc_error("http_server: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);

    workers_.reserve(worker_threads);
    for (std::size_t w = 0; w < worker_threads; ++w) {
        auto wk = std::make_unique<worker>();
        if (::pipe(wk->wake_pipe) != 0) {
            ::close(listen_fd_);
            throw util::ltsc_error("http_server: pipe() failed");
        }
        set_nonblocking(wk->wake_pipe[0]);
        workers_.push_back(std::move(wk));
    }
    for (auto& wk : workers_) {
        worker* raw = wk.get();
        raw->thread = std::thread([this, raw] { worker_loop(raw); });
    }
    acceptor_ = std::thread([this] { accept_loop(); });
}

http_server::~http_server() {
    stop_.store(true, std::memory_order_release);
    for (auto& wk : workers_) {
        const char b = 1;
        [[maybe_unused]] const ssize_t n = ::write(wk->wake_pipe[1], &b, 1);
    }
    acceptor_.join();
    for (auto& wk : workers_) {
        wk->thread.join();
        for (auto& c : wk->conns) {
            ::close(c.fd);
        }
        for (int fd : wk->inbox) {
            ::close(fd);
        }
        ::close(wk->wake_pipe[0]);
        ::close(wk->wake_pipe[1]);
    }
    ::close(listen_fd_);
}

void http_server::accept_loop() {
    std::size_t next = 0;
    while (!stop_.load(std::memory_order_acquire)) {
        struct pollfd pfd = {listen_fd_, POLLIN, 0};
        const int r = ::poll(&pfd, 1, 50);
        if (r <= 0) {
            continue;
        }
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                break;
            }
            set_nonblocking(fd);
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            workers_[next]->push(fd);
            next = (next + 1) % workers_.size();
        }
    }
}

void http_server::worker_loop(worker* w) {
    std::vector<struct pollfd> pfds;
    while (!stop_.load(std::memory_order_acquire)) {
        pfds.clear();
        pfds.push_back({w->wake_pipe[0], POLLIN, 0});
        for (const auto& c : w->conns) {
            pfds.push_back({c.fd, POLLIN, 0});
        }
        const int r = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
        if (stop_.load(std::memory_order_acquire)) {
            return;
        }
        if (r <= 0) {
            continue;
        }
        if ((pfds[0].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(w->wake_pipe[0], buf, sizeof(buf)) > 0) {
            }
            std::lock_guard<std::mutex> lk(w->inbox_mutex);
            for (int fd : w->inbox) {
                w->conns.push_back({fd, std::string()});
            }
            w->inbox.clear();
        }
        // Walk connections back-to-front so erasing is O(1)-ish and the
        // pollfd indices (offset by the wake pipe) stay aligned.
        for (std::size_t i = w->conns.size(); i-- > 0;) {
            if (i + 1 >= pfds.size()) {
                continue;  // Connection added this round; poll it next time.
            }
            const short revents = pfds[i + 1].revents;
            if (revents == 0) {
                continue;
            }
            auto& conn = w->conns[i];
            bool keep = (revents & (POLLERR | POLLHUP | POLLNVAL)) == 0;
            while (keep) {
                char buf[4096];
                const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    conn.inbuf.append(buf, static_cast<std::size_t>(n));
                    if (conn.inbuf.size() > k_max_request_bytes) {
                        keep = false;
                    }
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                keep = false;  // Peer closed or hard error.
            }
            if (keep) {
                keep = serve_buffered(conn.fd, conn.inbuf);
            }
            if (!keep) {
                ::close(conn.fd);
                w->conns.erase(w->conns.begin() + static_cast<std::ptrdiff_t>(i));
            }
        }
    }
}

bool http_server::serve_buffered(int fd, std::string& inbuf) {
    for (;;) {
        const std::size_t head_end = inbuf.find("\r\n\r\n");
        if (head_end == std::string::npos) {
            return true;  // Request incomplete; keep buffering.
        }
        std::string head = inbuf.substr(0, head_end);
        inbuf.erase(0, head_end + 4);

        const std::size_t sp1 = head.find(' ');
        const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                         : head.find(' ', sp1 + 1);
        std::string method = sp1 == std::string::npos ? std::string() : head.substr(0, sp1);
        std::string path = sp2 == std::string::npos
                               ? std::string()
                               : head.substr(sp1 + 1, sp2 - sp1 - 1);
        // Keep-alive unless the client opted out (HTTP/1.1 default).  Field
        // names and connection options are case-insensitive (RFC 9110
        // 5.1, 7.6.1), so the rest of the head is matched lower-cased;
        // method and path are already copied out.
        for (char& c : head) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        bool close_after = false;
        for (std::size_t eol = head.find("\r\n"); eol != std::string::npos;) {
            const std::size_t line = eol + 2;
            eol = head.find("\r\n", line);
            if (head.compare(line, 11, "connection:") == 0) {
                // Only this line's own value decides.
                const std::size_t end = eol == std::string::npos ? head.size() : eol;
                close_after = head.find("close", line + 11) < end;
            }
        }

        std::string body;
        const char* status = "200 OK";
        if (method != "GET" || path.empty()) {
            status = "400 Bad Request";
            body = "{\"error\":\"bad request\"}";
        } else if (!handler_(path, body)) {
            status = "404 Not Found";
            body = "{\"error\":\"not found\"}";
        }
        std::string response;
        response.reserve(body.size() + 128);
        response += "HTTP/1.1 ";
        response += status;
        response += "\r\nContent-Type: application/json\r\nContent-Length: ";
        response += std::to_string(body.size());
        response += close_after ? "\r\nConnection: close\r\n\r\n"
                                : "\r\nConnection: keep-alive\r\n\r\n";
        response += body;
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (!send_all(fd, response.data(), response.size())) {
            return false;
        }
        if (close_after) {
            return false;
        }
    }
}

}  // namespace ltsc::telemetry_service
