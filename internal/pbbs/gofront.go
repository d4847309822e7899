package pbbs

import (
	"embed"
	"fmt"
	"io/fs"
	"path"

	"repro/internal/gofront"
)

// The kernels live in kernels/*.go: build-tagged out of the binary, embedded
// here, and scanned by internal/gofront at package init. Dropping a new
// annotated file into the directory is the whole registration — the embed
// glob and the scan below pick it up with no registry edits.
//
//go:embed kernels/*.go
var kernelFS embed.FS

func init() {
	entries, err := fs.ReadDir(kernelFS, "kernels")
	if err != nil {
		panic(fmt.Sprintf("pbbs: reading embedded kernels: %v", err))
	}
	for _, e := range entries {
		src, err := fs.ReadFile(kernelFS, path.Join("kernels", e.Name()))
		if err != nil {
			panic(fmt.Sprintf("pbbs: reading embedded kernel %s: %v", e.Name(), err))
		}
		gk, err := gofront.Scan(e.Name(), src)
		if err != nil {
			panic(fmt.Sprintf("pbbs: %v", err))
		}
		k, err := newKernel(gk)
		if err != nil {
			panic(err)
		}
		if prev, dup := registry[k.ID]; dup {
			panic(fmt.Sprintf("pbbs: duplicate benchmark ID %d (%s and %s)", k.ID, prev.Name, k.Name))
		}
		registry[k.ID] = k
	}
}

// newKernel pairs a scanned kernel with the input generator its inputs=
// annotation names. An unknown or missing name is an error.
func newKernel(gk *gofront.Kernel) (*Kernel, error) {
	gen, ok := generators[gk.Inputs]
	if !ok {
		return nil, fmt.Errorf("pbbs: %s: unknown inputs=%q (the generators are listed in gen.go)", gk.File, gk.Inputs)
	}
	return &Kernel{Kernel: gk, gen: gen}, nil
}
