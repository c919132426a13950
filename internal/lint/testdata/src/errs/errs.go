// Package errs is a fixture exercising the error-discipline rule
// (err-drop) and the bad-ignore malformed-suppression diagnostic.
package errs

import (
	"errors"
	"strconv"
)

func fallible() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

// Drop discards errors three ways: three findings.
func Drop() int {
	_ = fallible()
	n, _ := pair()
	m, _ := strconv.Atoi("7")
	return n + m
}

// Handled is clean.
func Handled() (int, error) {
	n, err := pair()
	if err != nil {
		return 0, err
	}
	return n, nil
}

// CommaOK discards a bool, not an error: clean.
func CommaOK(m map[string]int) int {
	v, _ := m["k"]
	return v
}

// Best is a deliberate best-effort call: suppressed.
func Best() {
	//lint:ignore err-drop fixture demonstrates suppression
	_ = fallible()
}

// Malformed has an ignore comment without a reason: the suppression is
// rejected (bad-ignore) and the err-drop finding still fires.
func Malformed() {
	//lint:ignore err-drop
	_ = fallible()
}

// Unknown names a pass that does not exist: the suppression is
// rejected (bad-ignore) and the err-drop finding still fires.
func Unknown() {
	//lint:ignore err-dropp typo'd pass name
	_ = fallible()
}

// Stale carries a well-formed suppression with nothing to suppress:
// unused-ignore.
func Stale() int {
	//lint:ignore err-drop the call this once justified is gone
	return 0
}
