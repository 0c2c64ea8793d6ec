package store

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
)

// mapped counts the mappings MapFile made that Unmap has not released.
var mapped atomic.Int64

// Mappings reports how many mappings MapFile made that Unmap has not
// released yet, in the whole process.
func Mappings() int64 { return mapped.Load() }

// MapFile maps the whole file at path read-only and shared, and closes its
// descriptor: the mapping outlives it, and stays valid until Unmap. The
// cache's disk tier maps each spill file once, and a disk hit decodes
// views of the mapping (ReadParquetView) with no read and no copy of its
// fixed-width sections. A file never changes once mapped — a spill file is
// renamed into place whole and unlinked, never rewritten — so the mapping
// reads what was written; truncating a mapped file would fault its
// readers.
func MapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: cannot map %s of %d bytes", path, size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err == nil {
		mapped.Add(1)
	}
	return b, err
}

// Unmap releases a mapping MapFile made. Nothing may read the mapping, or a
// store decoded as views of it, afterwards. It fails only for a slice
// MapFile did not return.
func Unmap(b []byte) error {
	err := syscall.Munmap(b)
	if err == nil {
		mapped.Add(-1)
	}
	return err
}
