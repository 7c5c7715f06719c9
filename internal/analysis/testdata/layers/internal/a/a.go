// Package a is a stdlib-only leaf: listed with an empty allow list. Its
// clock.go and dot.go hold the wall-clock cases.
package a

import _ "sort"
