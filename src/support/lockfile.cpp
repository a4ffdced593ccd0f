#include "support/lockfile.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

namespace gpudiff::support {

namespace {

[[noreturn]] void throw_errno(const char* op, const std::string& path, int err) {
  throw std::runtime_error(std::string("lockfile: ") + op + " " + path + ": " +
                           std::strerror(err));
}

}  // namespace

std::string temp_path_for(const std::string& path) {
  // The nonce tells hosts apart, the pid processes of one host (a fork
  // inherits the nonce), the counter calls of one process.
  static const std::string nonce = [] {
    std::random_device device;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%08x%08x", device(), device());
    return std::string(hex);
  }();
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + nonce + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

bool publish_file_exclusive(const std::string& path, std::string_view contents) {
  const std::string tmp = temp_path_for(path);
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) throw_errno("open", tmp, errno);
    const std::size_t written =
        contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
    const int close_err = std::fclose(f);
    if (written != contents.size() || close_err != 0) {
      ::unlink(tmp.c_str());
      throw std::runtime_error("lockfile: short write to " + tmp);
    }
  }
  if (::link(tmp.c_str(), path.c_str()) == 0) {
    ::unlink(tmp.c_str());
    return true;
  }
  const int err = errno;
  ::unlink(tmp.c_str());
  if (err == EEXIST) return false;
  // ENOENT: our temp file vanished between write and link — a peer's
  // stale-temp reaper presumed this publisher dead.  The publish did not
  // happen, which is exactly "did not acquire"; treat it as losing the
  // race rather than killing a healthy process.
  if (err == ENOENT) return false;
  throw_errno("link", path, err);
}

bool touch_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
  return !ec;
}

double file_age_seconds(const std::string& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return -1.0;
  const auto now = std::filesystem::file_time_type::clock::now();
  const double age = std::chrono::duration<double>(now - mtime).count();
  // A future mtime (fleet clock skew over NFS, a stepped clock) must read
  // as "fresh right now", not as a negative age: callers use negative to
  // mean "no file" (see the header contract), and a scheduler that
  // mistook skew for absence would instantly steal a live worker's claim.
  return age < 0.0 ? 0.0 : age;
}

bool age_file(const std::string& path, double seconds) {
  std::error_code ec;
  const auto past = std::filesystem::file_time_type::clock::now() -
                    std::chrono::duration_cast<
                        std::filesystem::file_time_type::duration>(
                        std::chrono::duration<double>(seconds));
  std::filesystem::last_write_time(path, past, ec);
  return !ec;
}

bool remove_file(const std::string& path) {
  if (::unlink(path.c_str()) == 0) return true;
  if (errno == ENOENT) return false;
  throw_errno("unlink", path, errno);
}

bool rename_file(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) == 0) return true;
  if (errno == ENOENT) return false;
  throw_errno("rename", from, errno);
}

}  // namespace gpudiff::support
