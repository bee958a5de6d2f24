// Package buildfiles poses the files of an assembly-backed package:
// a GOARCH-suffixed pair, a //go:build pair, and a function declared
// without a body beside a guarded field.
package buildfiles

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// sum is implemented in assembly; its declaration has no body.
func sum(p *int, n int) int

// Add holds the documented mutex; not a finding.
func (c *counter) Add() {
	c.mu.Lock()
	c.n += sum(&c.n, 1)
	c.mu.Unlock()
}

// Peek forgot the lock.
func (c *counter) Peek() int {
	return c.n
}
