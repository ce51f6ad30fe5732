// LINT-AS: tests/lint_flag_matrix_test.cc
//
// Fixture stand-in for a digest-matrix test: it runs incremental_covered
// (declared in the flag_matrix.h fixture) both ways, so that knob counts
// as exercised and only incremental_untested is flagged.
//
// Not compiled — fed to `saath_lint.py --self-test` under the LINT-AS path.
namespace {

void exercise_matrix() {
  for (const bool incremental : {true, false}) {
    saath::BadConfig cfg;
    cfg.incremental_covered = incremental;
    (void)cfg;
  }
}

}  // namespace
