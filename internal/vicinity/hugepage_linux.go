package vicinity

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page size on the platforms that have one.
const hugePage = 2 << 20

// adviseHugePages asks the kernel to back the 2 MiB-aligned interior of a
// table slab with transparent huge pages. The forwarding loop probes the
// tables of random centers, so with 4 KiB pages nearly every probe is also
// a TLB miss. The advice is best-effort: a slab without an aligned interior,
// or a kernel that refuses (THP disabled), leaves the slab as it is.
func adviseHugePages(slab []entry) {
	if len(slab) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&slab[0])), len(slab)*int(unsafe.Sizeof(slab[0])))
	start := int(-uintptr(unsafe.Pointer(&b[0])) & (hugePage - 1))
	if start >= len(b) {
		return
	}
	end := start + (len(b)-start)&^(hugePage-1)
	if end > start {
		_ = syscall.Madvise(b[start:end], syscall.MADV_HUGEPAGE)
	}
}
