// Package deadcode is the root package of the deadcode analyzer's golden
// fixture: the test names it as the root, so its exported API is reached.
package deadcode

import "because/internal/lint/testdata/src/deadcode/inner"

// API is the exported root.
func API() { inner.Run() }

// unexported is not part of the API and nothing references it: flagged.
func unexported() {}
