// Package b is allowed to depend on internal/a only; every other
// module import here violates a layer rule. An external module or a
// program import would be one too, but the go command rejects those
// before any test runs, so the fixture does not spell them.
package b

import (
	_ "strings"

	_ "layered" // want importlayer "must not import the facade"

	_ "layered/internal/a"

	_ "layered/internal/c" // want importlayer "not an allowed dependency"
)
