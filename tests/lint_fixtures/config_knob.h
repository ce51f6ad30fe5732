// LINT-AS: src/sched/knob_config.h
//
// Seeded violation for the config-knob check: a default-initialized bool in
// a `struct *Config` that nothing sets to its other value. `flipped` is set
// to false by flipped_preset() below, so it counts as a live switch;
// `unflipped` is only ever assigned its default, which proves the check
// keys on non-default values rather than on mere assignments.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#pragma once

namespace saath {

struct KnobConfig {
  bool flipped = true;     // set false below: not flagged
  bool unflipped = false;  // EXPECT-LINT: config-knob
};

inline KnobConfig flipped_preset() {
  KnobConfig c;
  c.flipped = false;
  c.unflipped = false;
  return c;
}

}  // namespace saath
