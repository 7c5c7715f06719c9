// Command tool has no row in the fixture policy, so it may import
// anything in the module.
package main

import (
	_ "layered"
	_ "layered/internal/a"
)

func main() {}
