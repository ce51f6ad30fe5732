// LINT-AS: src/sched/bad_config.h
//
// Seeded violation for the flag-matrix check: an incremental mode knob
// declared in a config struct that no test under tests/ references.
// `incremental_covered` IS referenced by the flag_matrix_test.cc fixture,
// proving the check keys on test references rather than declarations. That
// fixture also runs the covered knob both ways, so only the untested one
// is a config-knob finding too.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
#pragma once

namespace saath {

struct BadConfig {
  bool incremental_untested = true;  // EXPECT-LINT: flag-matrix, config-knob
  bool incremental_covered = true;  // exercised by fixture test: not flagged
};

}  // namespace saath
