// hotc_analyze self-test fixture (analyzer input, never compiled).
// Seeded violation for the signal-purity rule: a by-value std::string
// local on the dump path, reached from a signal-root through a helper.
// It allocates as surely as a temporary does.
namespace fix {

class Dumper {
 public:
  // hotc-analyze: signal-root
  void on_fatal(int sig) {
    last_sig_ = sig;
    write_header();
  }

 private:
  void write_header() {
    std::string seeded = "dump";  // by-value local: may allocate
    raw_write(2, seeded.data(), static_cast<int>(seeded.size()));
  }

  int raw_write(int fd, const char* data, int len);  // write(2) wrapper

  int last_sig_ = 0;
};

}  // namespace fix
