// hotc_analyze self-test fixture (analyzer input, never compiled).
// The clean twin of ring_codec_fail.cpp: every codec the template root
// can reach stores into pre-sized state.
namespace fix {

struct Span {
  int to_word(int ticket) const { return ticket; }
};

struct Decision {
  int to_word(int ticket) const { return ticket * 2; }
};

template <class Record>
class Ring {
 public:
  // hotc-analyze: hot-path-root
  void record(const Record& rec) { slot_ = rec.to_word(slot_); }

 private:
  int slot_ = 0;
};

}  // namespace fix
