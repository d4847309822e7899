package machine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/noc"
)

// arenaRefs walks everything a machine holds — sections, shells on its free
// lists, core queues, requests, alias-table backings, buffers up to their
// capacity — and returns the path of every reference into an arena object:
// a *DynInst, a slot, a producer's ready or value cell, or an arena chunk.
// It does not look inside arena objects themselves, nor into the
// process-wide chunk lists, the program, the DMH or the network.
func arenaRefs(m *Machine) []string {
	pkg := reflect.TypeOf(Machine{}).PkgPath()
	arenaTypes := map[reflect.Type]bool{
		reflect.TypeOf(DynInst{}):   true,
		reflect.TypeOf(slot{}):      true,
		reflect.TypeOf(readyCell{}): true,
		reflect.TypeOf(uint64(0)):   true, // producer value cells
	}
	skip := map[reflect.Type]bool{
		reflect.TypeOf(&dynChunks).Elem():  true,
		reflect.TypeOf(&slotChunks).Elem(): true,
	}
	var refs []string
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			et := v.Type().Elem()
			switch {
			case arenaTypes[et]:
				refs = append(refs, path)
			case skip[et] || et.PkgPath() != pkg || seen[v.Pointer()]:
			default:
				seen[v.Pointer()] = true
				walk(v.Elem(), "(*"+path+")")
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if arenaTypes[v.Type().Elem()] {
				if !v.IsNil() {
					refs = append(refs, path)
				}
				return
			}
			// Up to the capacity: a stale pointer past the length pins memory
			// just the same.
			full := v.Slice(0, v.Cap())
			for i := 0; i < full.Len(); i++ {
				walk(full.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(reflect.ValueOf(m).Elem(), "m")
	return refs
}

// TestChunkReuseIsolation: a completed run hands its arena chunks to the
// process-wide free lists, where the next run — of any shape, on any
// goroutine — picks them up. No run may see another's state through them.
func TestChunkReuseIsolation(t *testing.T) {
	progA, progB := mustSumFork(t, 40), mustSumFork(t, 16)
	cfgA := DefaultConfig(4)
	cfgB := DefaultConfig(3)
	cfgB.Net = noc.NewRing(3, 1)
	cfgB.Shortcut = false

	t.Run("released", func(t *testing.T) {
		// The walker must see what a failed run keeps: it holds its chunks.
		cut := cfgA
		cut.MaxCycles = 60
		m, err := New(progA, cut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil {
			t.Fatal("truncated run unexpectedly succeeded")
		}
		if refs := arenaRefs(m); len(refs) == 0 {
			t.Fatal("no arena reference found in a truncated run: the walker is blind")
		}

		a, err := New(progA, cfgA)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
		if refs := arenaRefs(a); len(refs) != 0 {
			t.Fatalf("%d references into the arenas survive a completed run, e.g. %s", len(refs), refs[0])
		}
	})

	t.Run("other-shape", func(t *testing.T) {
		want := runSched(t, progA, cfgA, false)
		wantB := runSched(t, progB, cfgB, false)
		a, err := New(progA, cfgA)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(); err != nil {
			t.Fatal(err)
		}
		// B is smaller than A, so it runs entirely on chunks A released: the
		// lists must not grow. (This package's tests run sequentially, so no
		// other machine takes or returns chunks meanwhile.)
		dyn, slots := len(dynChunks.free), len(slotChunks.free)
		checkIdentical(t, "machine B on A's chunks", wantB, runSched(t, progB, cfgB, false))
		if len(dynChunks.free) != dyn || len(slotChunks.free) != slots {
			t.Fatalf("free lists grew from %d/%d to %d/%d chunks: B did not run on A's released chunks",
				dyn, slots, len(dynChunks.free), len(slotChunks.free))
		}
		a.Reset()
		got, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, "A reset after B", want, got)
	})

	t.Run("concurrent", func(t *testing.T) {
		progs := []*isa.Program{progA, progB}
		cfgs := []Config{cfgA, cfgB}
		want := []*Result{runSched(t, progA, cfgA, false), runSched(t, progB, cfgB, false)}
		const goroutines, rounds = 2, 6
		got := make([][]*Result, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					k := (g + i) % 2 // the goroutines alternate shapes out of phase
					m, err := New(progs[k], cfgs[k])
					if err != nil {
						errs[g] = err
						return
					}
					r, err := m.Run()
					if err != nil {
						errs[g] = err
						return
					}
					got[g] = append(got[g], r)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("goroutine %d: %v", g, errs[g])
			}
			for i, r := range got[g] {
				checkIdentical(t, fmt.Sprintf("goroutine %d round %d", g, i), want[(g+i)%2], r)
			}
		}
	})
}

// TestInstTimingPointerFree: a timing row holds no pointer, so a run's
// Timings slice is allocated as memory the GC never scans.
func TestInstTimingPointerFree(t *testing.T) {
	var check func(ty reflect.Type, path string)
	check = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: InstTiming must stay pointer-free", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				check(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			check(ty.Elem(), path+"[]")
		}
	}
	check(reflect.TypeOf(InstTiming{}), "InstTiming")
}
