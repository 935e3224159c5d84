#pragma once
// One capes_daemond session on a test thread, for tests that put a
// CapesSystem's brain behind a loopback `tcp:` link.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/brain_service.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"

namespace capes::testing {

/// One capes_daemond session on a test thread: listen on an ephemeral
/// loopback port, accept one peer, serve it. kill_link() simulates the
/// daemon dying mid-phase by closing the endpoint under the client.
class ServiceThread {
 public:
  bool start() {
    std::string error;
    listen_fd_ = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd_ < 0) {
      ADD_FAILURE() << "tcp_listen: " << error;
      return false;
    }
    port_ = net::local_port(listen_fd_);
    thread_ = std::thread([this] { run(); });
    return true;
  }

  std::uint16_t port() const { return port_; }

  void kill_link() {
    std::lock_guard<std::mutex> lock(mu_);
    if (endpoint_) endpoint_->close();
  }

  core::BrainServiceReport join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  void run() {
    std::string error;
    const int fd = net::accept_connection(listen_fd_, 10000, &error);
    net::close_socket(listen_fd_);
    if (fd < 0) {
      report_.error = "accept: " + error;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      endpoint_ = std::make_unique<net::Endpoint>(fd, net::EndpointOptions{});
    }
    core::BrainService service;
    report_ = service.serve(*endpoint_);
    std::lock_guard<std::mutex> lock(mu_);
    endpoint_->close();
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;
  std::unique_ptr<net::Endpoint> endpoint_;
  core::BrainServiceReport report_;
  std::thread thread_;
};

}  // namespace capes::testing
