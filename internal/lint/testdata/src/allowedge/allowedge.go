// Package allowedge is a paredlint fixture for the //paredlint:allow edge
// cases exercised by TestAllowEdgeCases: a directive on the wrong line (the
// finding survives and the directive goes stale), a multi-check directive
// suppressing two checks on one line, and a directive with no matching
// finding at all.
package allowedge

import (
	"os"
	"time"
)

// wrongLine: the directive is two lines above the call; allow only works on
// the same line or the line immediately above, so the finding stands and the
// directive is stale.
func wrongLine() {
	//paredlint:allow sleep -- wrong line: too far from the call to apply

	time.Sleep(time.Millisecond)
}

// multiAllow: the one-line go statement triggers both rawconc (raw goroutine
// outside the audited packages) and errcheck (the closure drops os.Remove's
// error); one multi-check directive covers both.
func multiAllow() {
	//paredlint:allow rawconc,errcheck -- deliberate: TestAllowEdgeCases wants both suppressed by one directive
	go func() { os.Remove("") }()
}

// staleOnly: nothing here can trigger floateq, so this directive is reported
// by StaleAllows.
func staleOnly() int {
	//paredlint:allow floateq -- stale on purpose: no floateq finding below
	return 0
}
