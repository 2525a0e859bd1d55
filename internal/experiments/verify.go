package experiments

import "megh/internal/sim"

// checkerFactory, when non-nil, is invoked once per Setup.Build so every
// simulation this package assembles carries a fresh invariant checker.
var checkerFactory func() sim.Checker

// SetCheckerFactory installs (or, with nil, clears) a factory producing the
// runtime invariant checker attached to every built configuration. The
// package's own tests use it to run every experiment under the conservation
// checks in internal/invariant without this package importing the checker;
// cmd/meghsim's -check flag rides the same configuration field directly.
//
// Install it before starting runs: the variable is not synchronised.
func SetCheckerFactory(f func() sim.Checker) { checkerFactory = f }
