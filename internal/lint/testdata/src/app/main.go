// Command app is the fixture module's one binary: what it reaches is
// the fixture's production code.
package main

import (
	"fmt"

	"fixture/clean"
	"fixture/errs"
	"fixture/unreached"
)

func main() {
	n, err := clean.Parse("7")
	fmt.Println(n, err)
	errs.Drop()
	fmt.Println(errs.Handled())
	errs.CommaOK(nil)
	errs.Best()
	errs.Malformed()
	errs.Unknown()
	errs.Stale()

	unreached.NewWidget()
	unreached.NewCat()
	fmt.Println(unreached.Pets())
	unreached.Map([]int{1}, func(x int) int { return x + 1 })
	fmt.Println(unreached.Box[int]{}.Get())
	unreached.Stale()
}
