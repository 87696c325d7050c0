// Fixture: a const_cast must fire `const-cast`, in tools/ as anywhere.
// Never compiled — checked-in input for tests/analyze_test.cc.
#include <vector>

void Clear(const std::vector<int>& v) {
  const_cast<std::vector<int>&>(v).clear();
}
