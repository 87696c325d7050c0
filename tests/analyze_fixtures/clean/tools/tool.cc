// Fixture: a command-line tool checking its input with CFL_CHECK (a
// mutation seed swaps in a raw assert).
#include "check/check.h"

int main(int argc, char** argv) {
  CFL_CHECK(argc > 0);
  return argv == nullptr ? 1 : 0;
}
