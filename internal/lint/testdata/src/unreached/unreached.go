// Package unreached is a fixture for the unreached pass: the app
// binary reaches some of these functions and not others.
package unreached

import "fmt"

// Exported is called by nothing: a finding.
func Exported() {}

// unexported is called by nothing: a finding.
func unexported() {}

// Widget is used by app, but its method is never called: a finding.
type Widget struct{}

// Dead is a method no reached code calls.
func (Widget) Dead() {}

// NewWidget is reached from app.
func NewWidget() Widget { return Widget{} }

// Namer is called through by Describe.
type Namer interface{ Name() string }

// Dog reaches app only as a Namer: Name through the interface call in
// Describe, String through fmt.
type Dog struct{}

func (Dog) Name() string { return "dog" }

func (Dog) String() string { return "Dog" }

// Cat is never converted to an interface, so the interface call in
// Describe does not reach its Name: a finding.
type Cat struct{}

func (Cat) Name() string { return "cat" }

// NewCat is reached from app.
func NewCat() Cat { return Cat{} }

// Describe calls Name through the interface and formats n with fmt.
func Describe(n Namer) string { return n.Name() + fmt.Sprint(n) }

// Pets is reached from app; it converts a Dog, never a Cat.
func Pets() string { return Describe(Dog{}) }

// hook is a package-level variable: its initialiser reaches viaVar.
var hook = viaVar

func viaVar() int { return 1 }

//lint:ignore unreached fixture: a kept entry point
func Kept() { keptCallee() }

// keptCallee needs no directive: the kept Kept reaches it.
func keptCallee() {}

// Map is generic; app's instance reaches it through Origin.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Box is a generic type; app calls Get on an instance.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Last is a generic function no one instantiates: a finding.
func Last[T any](xs []T) T { return xs[len(xs)-1] }

// NoReason carries a directive without a reason: bad-ignore, and the
// finding still fires.
//
//lint:ignore unreached
func NoReason() {}

// Stale carries a directive, but app calls it: unused-ignore.
//
//lint:ignore unreached this was once an entry point
func Stale() {}
