// Command tool has no row in the fixture policy, so it may import
// anything in the module. A program is outside internal/, so it may
// read the wall clock too.
package main

import (
	"fmt"
	"time"

	_ "layered"
	_ "layered/internal/a"
)

func main() { fmt.Println(time.Now()) }
