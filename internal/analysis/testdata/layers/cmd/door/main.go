// Command door has a row in the fixture policy: a listed program may
// import the facade and what its row names (internal/a), so reaching
// past the facade for internal/c — the stand-in for a storage package
// like internal/iosim — is a violation. cmd/tool, which has no row,
// stays free.
package main

import (
	_ "layered"
	_ "layered/internal/a"

	_ "layered/internal/c" // want importlayer "not an allowed dependency of cmd/door"
)

func main() {}
