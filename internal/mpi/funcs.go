package mpi

import (
	"strings"
	"sync"

	"pperf/internal/probe"
)

// The MPI function table. Every traced routine has both its MPI_ and PMPI_
// symbol registered (the MPI profiling interface requires every routine to
// be callable with a PMPI prefix, §4.1.1). Which symbol a call resolves to
// depends on the implementation personality: MPICH's default weak-symbol
// build resolves user calls to the PMPI_ names.
var mpiFuncNames = []string{
	"MPI_Init", "MPI_Finalize",
	"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv",
	"MPI_Wait", "MPI_Test", "MPI_Waitall", "MPI_Sendrecv", "MPI_Probe", "MPI_Iprobe",
	"MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce",
	"MPI_Ssend", "MPI_Gather", "MPI_Scatter", "MPI_Allgather", "MPI_Alltoall",
	"MPI_Comm_spawn", "MPI_Comm_get_parent", "MPI_Comm_set_name",
	"MPI_Intercomm_merge", "MPI_Comm_dup", "MPI_Comm_split",
	"MPI_Win_create", "MPI_Win_free", "MPI_Win_fence",
	"MPI_Win_start", "MPI_Win_complete", "MPI_Win_post", "MPI_Win_wait",
	"MPI_Win_lock", "MPI_Win_unlock", "MPI_Win_set_name",
	"MPI_Put", "MPI_Get", "MPI_Accumulate",
	"MPI_Type_size",
	"MPI_File_open", "MPI_File_close", "MPI_File_read_at", "MPI_File_write_at",
}

// funcTable resolves function names to probe.Function values for one library
// module. Tables are cached per module name.
type funcTable struct {
	byName map[string]*probe.Function
}

var (
	tableMu sync.Mutex
	tables  = map[string]*funcTable{}
)

// libTable returns (building if needed) the function table for a library
// module. It contains MPI_* and PMPI_* entries plus the libc socket entries
// (read/write) used by socket-transport personalities.
func libTable(module string) *funcTable {
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tables[module]; ok {
		return t
	}
	t := &funcTable{byName: map[string]*probe.Function{}}
	for _, name := range mpiFuncNames {
		t.byName[name] = &probe.Function{Name: name, Module: module}
		pname := "P" + name
		t.byName[pname] = &probe.Function{Name: pname, Module: module}
	}
	for _, name := range []string{"read", "write"} {
		t.byName[name] = &probe.Function{Name: name, Module: "libc.so"}
	}
	tables[module] = t
	return t
}

// fn resolves the canonical MPI_* name to the Function the tool observes
// under this personality: the PMPI_* symbol for weak-symbol builds, the
// MPI_* symbol otherwise. Non-MPI names (read, write) pass through.
func (im *Impl) fn(name string) *probe.Function {
	t := libTable(im.LibModule)
	if im.UsesPMPINames && strings.HasPrefix(name, "MPI_") {
		if f, ok := t.byName["P"+name]; ok {
			return f
		}
	}
	f, ok := t.byName[name]
	if !ok {
		panic("mpi: unknown function " + name)
	}
	return f
}
