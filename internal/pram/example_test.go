package pram_test

import (
	"fmt"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

// ExampleRun executes the recursive-doubling prefix-sum program on the
// ideal PRAM and reads back the total.
func ExampleRun() {
	id := pram.NewIdeal(16, nil)
	in := []pram.Word{1, 2, 3, 4, 5, 6, 7, 8}
	steps, err := pram.Run(&pram.PrefixSum{In: in}, id)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("PRAM steps:", steps)
	fmt.Println("prefix total:", id.Mem()[7])
	// Output:
	// PRAM steps: 7
	// prefix total: 36
}

// ExampleNewBackend runs the same program through the paper's mesh
// simulation, built from sim.New's default parameters (side 9, q 3,
// d 3, k 2): identical results, mesh-step cost reported.
func ExampleNewBackend() {
	mb, err := pram.NewBackend(pram.BackendMesh, sim.MustNew())
	if err != nil {
		fmt.Println(err)
		return
	}
	in := []pram.Word{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := pram.Run(&pram.PrefixSum{In: in}, mb); err != nil {
		fmt.Println(err)
		return
	}
	res, err := mb.ExecStep([]pram.Op{{Kind: pram.Read, Addr: 7}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("prefix total:", res[0])
	fmt.Println("simulation was charged mesh steps:", mb.Steps() > 0)
	// Output:
	// prefix total: 36
	// simulation was charged mesh steps: true
}
