// hotc_analyze self-test fixture (analyzer input, never compiled).
// Clean twin of signal_string_fail: the dump path names its header
// through a view and a const reference, neither of which allocates.
namespace fix {

class Dumper {
 public:
  // hotc-analyze: signal-root
  void on_fatal(int sig) {
    last_sig_ = sig;
    write_header(name_);
  }

 private:
  void write_header(const std::string& name) {
    const std::string_view seeded = "dump";
    raw_write(2, seeded.data(), static_cast<int>(seeded.size()));
    raw_write(2, name.data(), static_cast<int>(name.size()));
  }

  int raw_write(int fd, const char* data, int len);  // write(2) wrapper

  int last_sig_ = 0;
  std::string name_;  // formatted before the handler is armed
};

}  // namespace fix
