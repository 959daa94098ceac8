// hotc_analyze self-test fixture (analyzer input, never compiled).
// Seeded violation for the hot-path-alloc rule behind a class template:
// the root calls its record's codec through a receiver typed by the
// template parameter, and one record's codec allocates.
namespace fix {

struct Span {
  int to_word(int ticket) const { return ticket; }
};

struct Decision {
  int to_word(int ticket) const {
    auto* copy = new int(ticket);  // reached only through Ring<Record>
    return *copy;
  }
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
