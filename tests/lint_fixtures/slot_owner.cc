// LINT-AS: src/sched/slot_grab.cc
//
// Seeded violations for the slot-owner check: in src/ only the engine
// (src/sim/engine.cc) sets a CoflowState's slot. A scheduler that hands
// out its own could give two live CoFlows the same slot, or one the engine
// has already given to the next arrival. A mention in a comment
// (c.set_slot(0)) and a declaration are not flagged.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#include "coflow/coflow.h"

namespace saath {

class SlotGrab {
 public:
  void set_slot(Slot slot);  // a declaration, not a call

  void on_arrival(CoflowState& c) {
    c.set_slot(next_++);  // EXPECT-LINT: slot-owner
  }

  void on_restore(CoflowState* c) {
    c->set_slot(0);  // EXPECT-LINT: slot-owner
  }

 private:
  Slot next_ = 0;
};

}  // namespace saath
