//go:build !linux

package vicinity

// adviseHugePages is a no-op where there is no madvise(MADV_HUGEPAGE).
func adviseHugePages([]entry) {}
