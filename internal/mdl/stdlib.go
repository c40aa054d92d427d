package mdl

import "sync"

// StdSource is the standard metric library in MDL, containing the paper's
// Table 1 RMA metrics (rma_*_ops, rma_*_bytes, at/pt/general rma_sync_wait,
// rma_sync_ops), the MPI-1 metrics the Performance Consultant searches with
// (sync_wait_inclusive, io_wait, cpu_inclusive, message counters), and the
// resource constraints of Fig 2 (the RMA window constraint plus message
// communicator/tag constraints). Function sets list both MPI_ and PMPI_
// symbols — the §4.1.1 fix for MPICH's weak-symbol builds.
const StdSource = `
// ---- function sets -------------------------------------------------------

resourceList mpi_put is procedure { "MPI_Put", "PMPI_Put" } flavor { mpi };
resourceList mpi_get is procedure { "MPI_Get", "PMPI_Get" } flavor { mpi };
resourceList mpi_acc is procedure { "MPI_Accumulate", "PMPI_Accumulate" } flavor { mpi };

resourceList mpi_at_rma_sync is procedure {
    "MPI_Win_fence", "PMPI_Win_fence",
    "MPI_Win_start", "PMPI_Win_start",
    "MPI_Win_complete", "PMPI_Win_complete",
    "MPI_Win_wait", "PMPI_Win_wait"
} flavor { mpi };

resourceList mpi_pt_rma_sync is procedure {
    "MPI_Win_lock", "PMPI_Win_lock",
    "MPI_Win_unlock", "PMPI_Win_unlock"
} flavor { mpi };

resourceList mpi_rma_sync is procedure {
    "MPI_Win_fence", "PMPI_Win_fence",
    "MPI_Win_create", "PMPI_Win_create",
    "MPI_Win_free", "PMPI_Win_free",
    "MPI_Win_start", "PMPI_Win_start",
    "MPI_Win_complete", "PMPI_Win_complete",
    "MPI_Win_wait", "PMPI_Win_wait",
    "MPI_Win_lock", "PMPI_Win_lock",
    "MPI_Win_unlock", "PMPI_Win_unlock",
    "MPI_Put", "PMPI_Put",
    "MPI_Get", "PMPI_Get",
    "MPI_Accumulate", "PMPI_Accumulate"
} flavor { mpi };

resourceList mpi_rma_sync_ops_fns is procedure {
    "MPI_Win_fence", "PMPI_Win_fence",
    "MPI_Win_start", "PMPI_Win_start",
    "MPI_Win_complete", "PMPI_Win_complete",
    "MPI_Win_wait", "PMPI_Win_wait",
    "MPI_Win_lock", "PMPI_Win_lock",
    "MPI_Win_unlock", "PMPI_Win_unlock"
} flavor { mpi };

resourceList mpi_sync_calls is procedure {
    "MPI_Send", "PMPI_Send",
    "MPI_Recv", "PMPI_Recv",
    "MPI_Wait", "PMPI_Wait",
    "MPI_Waitall", "PMPI_Waitall",
    "MPI_Sendrecv", "PMPI_Sendrecv",
    "MPI_Barrier", "PMPI_Barrier",
    "MPI_Bcast", "PMPI_Bcast",
    "MPI_Reduce", "PMPI_Reduce",
    "MPI_Allreduce", "PMPI_Allreduce",
    "MPI_Comm_spawn", "PMPI_Comm_spawn",
    "MPI_Win_fence", "PMPI_Win_fence",
    "MPI_Win_create", "PMPI_Win_create",
    "MPI_Win_free", "PMPI_Win_free",
    "MPI_Win_start", "PMPI_Win_start",
    "MPI_Win_complete", "PMPI_Win_complete",
    "MPI_Win_wait", "PMPI_Win_wait",
    "MPI_Win_lock", "PMPI_Win_lock",
    "MPI_Win_unlock", "PMPI_Win_unlock"
} flavor { mpi };

resourceList mpi_send_entry is procedure {
    "MPI_Send", "PMPI_Send", "MPI_Isend", "PMPI_Isend"
} flavor { mpi };

resourceList mpi_recv_entry is procedure {
    "MPI_Recv", "PMPI_Recv", "MPI_Irecv", "PMPI_Irecv"
} flavor { mpi };

resourceList mpi_sendrecv_fns is procedure {
    "MPI_Sendrecv", "PMPI_Sendrecv"
} flavor { mpi };

resourceList mpi_p2p_comm5 is procedure {
    "MPI_Send", "PMPI_Send", "MPI_Recv", "PMPI_Recv",
    "MPI_Isend", "PMPI_Isend", "MPI_Irecv", "PMPI_Irecv"
} flavor { mpi };

resourceList io_fns is procedure {
    "read", "write",
    "MPI_File_open", "PMPI_File_open",
    "MPI_File_close", "PMPI_File_close",
    "MPI_File_read_at", "PMPI_File_read_at",
    "MPI_File_write_at", "PMPI_File_write_at"
} flavor { mpi };

resourceList mpi_file_write is procedure {
    "MPI_File_write_at", "PMPI_File_write_at"
} flavor { mpi };

resourceList mpi_file_read is procedure {
    "MPI_File_read_at", "PMPI_File_read_at"
} flavor { mpi };

resourceList mpi_win_arg1 is procedure {
    "MPI_Win_fence", "PMPI_Win_fence", "MPI_Win_unlock", "PMPI_Win_unlock"
} flavor { mpi };

resourceList mpi_win_arg2 is procedure {
    "MPI_Win_start", "PMPI_Win_start", "MPI_Win_post", "PMPI_Win_post"
} flavor { mpi };

resourceList mpi_win_arg0 is procedure {
    "MPI_Win_complete", "PMPI_Win_complete",
    "MPI_Win_wait", "PMPI_Win_wait",
    "MPI_Win_free", "PMPI_Win_free"
} flavor { mpi };

resourceList mpi_win_arg3 is procedure {
    "MPI_Win_lock", "PMPI_Win_lock"
} flavor { mpi };

resourceList mpi_spawn is procedure {
    "MPI_Comm_spawn", "PMPI_Comm_spawn"
} flavor { mpi };

// ---- constraints (Fig 2) -------------------------------------------------

constraint mpi_windowConstraint /SyncObject/Window is counter {
    foreach func in mpi_get {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_put {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_acc {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[8]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg1 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[1]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg2 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[2]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg0 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[0]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg3 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[3]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
}

constraint mpi_msgConstraint /SyncObject/Message is counter {
    foreach func in mpi_p2p_comm5 {
        prepend preinsn func.entry (*
            if (DYNINSTComm_FindId($arg[5]) == $constraint[0]) mpi_msgConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgConstraint = 0; *)
    }
    foreach func in mpi_sendrecv_fns {
        prepend preinsn func.entry (*
            if (DYNINSTComm_FindId($arg[10]) == $constraint[0]) mpi_msgConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgConstraint = 0; *)
    }
}

constraint mpi_msgTagConstraint /SyncObject/Message/* is counter {
    foreach func in mpi_p2p_comm5 {
        prepend preinsn func.entry (*
            if (DYNINSTTagName($arg[4]) == $constraint[0]) mpi_msgTagConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgTagConstraint = 0; *)
    }
    foreach func in mpi_sendrecv_fns {
        prepend preinsn func.entry (*
            if (DYNINSTTagName($arg[4]) == $constraint[0]) mpi_msgTagConstraint = 1;
        *)
        prepend preinsn func.entry (*
            if (DYNINSTTagName($arg[9]) == $constraint[0]) mpi_msgTagConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgTagConstraint = 0; *)
    }
}

// ---- Table 1: RMA metrics -------------------------------------------------

metric mpi_rma_put_ops {
    name "rma_put_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (* mpi_rma_put_ops++; *)
        }
    }
}

metric mpi_rma_get_ops {
    name "rma_get_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_get {
            append preinsn func.entry constrained (* mpi_rma_get_ops++; *)
        }
    }
}

metric mpi_rma_acc_ops {
    name "rma_acc_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_acc {
            append preinsn func.entry constrained (* mpi_rma_acc_ops++; *)
        }
    }
}

metric mpi_rma_ops {
    name "rma_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (* mpi_rma_ops++; *)
        }
        foreach func in mpi_get {
            append preinsn func.entry constrained (* mpi_rma_ops++; *)
        }
        foreach func in mpi_acc {
            append preinsn func.entry constrained (* mpi_rma_ops++; *)
        }
    }
}

metric mpi_rma_put_bytes {
    name "rma_put_bytes";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_put_bytes += bytes * count;
            *)
        }
    }
}

metric mpi_rma_get_bytes {
    name "rma_get_bytes";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_get {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_get_bytes += bytes * count;
            *)
        }
    }
}

metric mpi_rma_acc_bytes {
    name "rma_acc_bytes";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_acc {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_acc_bytes += bytes * count;
            *)
        }
    }
}

metric mpi_rma_bytes {
    name "rma_bytes";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_bytes += bytes * count;
            *)
        }
        foreach func in mpi_get {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_bytes += bytes * count;
            *)
        }
        foreach func in mpi_acc {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_rma_bytes += bytes * count;
            *)
        }
    }
}

metric mpi_at_rma_syncwait {
    name "at_rma_sync_wait";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is walltimer {
        foreach func in mpi_at_rma_sync {
            append preinsn func.entry constrained (* startWalltimer(mpi_at_rma_syncwait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_at_rma_syncwait); *)
        }
    }
}

metric mpi_pt_rma_syncwait {
    name "pt_rma_sync_wait";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is walltimer {
        foreach func in mpi_pt_rma_sync {
            append preinsn func.entry constrained (* startWalltimer(mpi_pt_rma_syncwait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_pt_rma_syncwait); *)
        }
    }
}

metric mpi_rma_syncwait {
    name "rma_sync_wait";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is walltimer {
        foreach func in mpi_rma_sync {
            append preinsn func.entry constrained (* startWalltimer(mpi_rma_syncwait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_rma_syncwait); *)
        }
    }
}

metric mpi_rma_sync_ops {
    name "rma_sync_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_rma_sync_ops_fns {
            append preinsn func.entry constrained (* mpi_rma_sync_ops++; *)
        }
    }
}

// ---- MPI-1 metrics --------------------------------------------------------

metric mpi_sync_wait {
    name "sync_wait_inclusive";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    constraint mpi_msgConstraint;
    constraint mpi_msgTagConstraint;
    base is walltimer {
        foreach func in mpi_sync_calls {
            append preinsn func.entry constrained (* startWalltimer(mpi_sync_wait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_sync_wait); *)
        }
    }
}

metric mpi_io_wait {
    name "io_wait";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is walltimer {
        foreach func in io_fns {
            append preinsn func.entry constrained (* startWalltimer(mpi_io_wait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_io_wait); *)
        }
    }
}

metric mpi_io_ops {
    name "io_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is counter {
        foreach func in mpi_file_write {
            append preinsn func.entry constrained (* mpi_io_ops++; *)
        }
        foreach func in mpi_file_read {
            append preinsn func.entry constrained (* mpi_io_ops++; *)
        }
    }
}

metric mpi_io_bytes {
    name "io_bytes";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_file_write {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[4], &bytes);
                count = $arg[3];
                mpi_io_bytes += bytes * count;
            *)
        }
        foreach func in mpi_file_read {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[4], &bytes);
                count = $arg[3];
                mpi_io_bytes += bytes * count;
            *)
        }
    }
}

metric mpi_msgs_sent {
    name "msgs_sent";
    units msgs;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_msgConstraint;
    constraint mpi_msgTagConstraint;
    base is counter {
        foreach func in mpi_send_entry {
            append preinsn func.entry constrained (* mpi_msgs_sent++; *)
        }
        foreach func in mpi_sendrecv_fns {
            append preinsn func.entry constrained (* mpi_msgs_sent++; *)
        }
    }
}

metric mpi_msgs_recv {
    name "msgs_recv";
    units msgs;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_msgConstraint;
    constraint mpi_msgTagConstraint;
    base is counter {
        foreach func in mpi_recv_entry {
            append preinsn func.entry constrained (* mpi_msgs_recv++; *)
        }
        foreach func in mpi_sendrecv_fns {
            append preinsn func.entry constrained (* mpi_msgs_recv++; *)
        }
    }
}

metric mpi_msg_bytes_sent {
    name "msg_bytes_sent";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_msgConstraint;
    constraint mpi_msgTagConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_send_entry {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_msg_bytes_sent += bytes * count;
            *)
        }
        foreach func in mpi_sendrecv_fns {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_msg_bytes_sent += bytes * count;
            *)
        }
    }
}

metric mpi_msg_bytes_recv {
    name "msg_bytes_recv";
    units bytes;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_msgConstraint;
    constraint mpi_msgTagConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_recv_entry {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                mpi_msg_bytes_recv += bytes * count;
            *)
        }
        foreach func in mpi_sendrecv_fns {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[7], &bytes);
                count = $arg[6];
                mpi_msg_bytes_recv += bytes * count;
            *)
        }
    }
}

metric mpi_spawn_ops {
    name "spawn_ops";
    units ops;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is counter {
        foreach func in mpi_spawn {
            append preinsn func.entry constrained (* mpi_spawn_ops++; *)
        }
    }
}

metric mpi_spawn_wait {
    name "spawn_wait";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is walltimer {
        foreach func in mpi_spawn {
            append preinsn func.entry constrained (* startWalltimer(mpi_spawn_wait); *)
            prepend preinsn func.return constrained (* stopWalltimer(mpi_spawn_wait); *)
        }
    }
}

// ---- code metrics ----------------------------------------------------------

metric cpu_inclusive {
    name "cpu_inclusive";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is processtimer {
        foreach func in focusCode {
            append preinsn func.entry (* startProcessTimer(cpu_inclusive); *)
            prepend preinsn func.return (* stopProcessTimer(cpu_inclusive); *)
        }
    }
}

metric wall_inclusive {
    name "wall_inclusive";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is walltimer {
        foreach func in focusCode {
            append preinsn func.entry (* startWalltimer(wall_inclusive); *)
            prepend preinsn func.return (* stopWalltimer(wall_inclusive); *)
        }
    }
}

metric procedure_calls {
    name "procedure_calls";
    units calls;
    unitstype unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is counter {
        foreach func in focusCode {
            append preinsn func.entry (* procedure_calls++; *)
        }
    }
}

// exec_time reads the process wall clock directly; the Performance
// Consultant divides other metrics by it.
metric exec_time {
    name "exec_time";
    units seconds;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is wallclock {
    }
}

// system_time is the extension metric whose absence made the paper's
// system-time benchmark fail (Table 2): Paradyn's default metrics did not
// measure kernel time. It is provided here as an opt-in extra and is not
// part of the Performance Consultant's default hypothesis set, preserving
// the paper's result.
metric system_time {
    name "system_time";
    units CPUs;
    unitstype normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    base is sysclock {
    }
}
`

// stdLib compiles StdSource on first use; an error in the embedded source is
// a programming bug and panics.
var stdLib = sync.OnceValue(func() *Library {
	lib, err := CompileSource(StdSource)
	if err != nil {
		panic("mdl: standard library does not compile: " + err.Error())
	}
	return lib
})

// StdLib returns the compiled standard metric library, the one every session
// of the process shares.
func StdLib() *Library { return stdLib() }

// NewLibraryWithStd returns the standard library with the user's MDL source
// compiled and merged on top (how Paradyn users extend the tool, §4); with
// no user source that is StdLib itself.
func NewLibraryWithStd(userSrc string) (*Library, error) {
	if userSrc == "" {
		return StdLib(), nil
	}
	user, err := CompileSource(userSrc)
	if err != nil {
		return nil, err
	}
	return StdLib().merged(user)
}
