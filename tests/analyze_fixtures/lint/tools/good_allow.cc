// Fixture: a well-formed allow-comment (known rule + reason) suppresses
// exactly the annotated line; the file must produce no diagnostic.
// Never compiled — checked-in input for tests/analyze_test.cc.

class Memo {
 public:
  int Get(int key) const;

 private:
  // cfl-analyze: allow(mutable-member) fixture: private memo cache, single-threaded by construction
  mutable int last_result_ = 0;
};
