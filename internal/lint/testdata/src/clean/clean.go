// Package clean has no findings: the negative half of the golden
// test.
package clean

import "strconv"

// Parse handles the error it is given.
func Parse(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return n, nil
}
