package ballerino_test

import (
	"fmt"
	"log"

	ballerino "repro"
)

// ExampleRun simulates the Ballerino scheduler on the quickstart workload.
func ExampleRun() {
	res, err := ballerino.Run(ballerino.Config{
		Arch:     "Ballerino",
		Workload: "compute",
		MaxOps:   50_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Arch, "committed", res.Committed, "μops")
	fmt.Println("IPC above in-order levels:", res.IPC > 1.0)
	// Output:
	// Ballerino committed 50000 μops
	// IPC above in-order levels: true
}

// ExampleRun_comparison ranks two schedulers on the same kernel.
func ExampleRun_comparison() {
	ipc := func(arch string) float64 {
		r, err := ballerino.Run(ballerino.Config{Arch: arch, Workload: "sparse-trees", MaxOps: 40_000})
		if err != nil {
			log.Fatal(err)
		}
		return r.IPC
	}
	fmt.Println("Ballerino beats CASINO on gather-heavy code:", ipc("Ballerino") > ipc("CASINO"))
	// Output:
	// Ballerino beats CASINO on gather-heavy code: true
}

// ExampleKernels lists the first kernels of the catalogue with their
// behaviour class.
func ExampleKernels() {
	for _, k := range ballerino.Kernels()[:3] {
		fmt.Println(k.Name, k.Kind)
	}
	// Output:
	// branchy branchy
	// compute compute-bound
	// hash-join memory-bound
}
