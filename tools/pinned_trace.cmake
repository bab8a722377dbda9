# End-to-end output gate for `bwsim multi` (or `bwsim single`): runs it
# once with --trace-out and requires the NDJSON trace's SHA-256 to equal a
# pinned digest. The multi digests were recorded from the naive
# per-session-scan engine that the single sparse engine replaced, so each
# test proves the shipped binary still emits exactly those bytes —
# workload generation, adapter wrapping, audit configuration, trace
# serialization and all. The in-process property grids live in
# tests/engine_equivalence_test.cc.
#
# The gate itself is tested: a ctest runs this script against the wrong
# digest under expect_fail.cmake and requires the "NDJSON trace differs"
# failure — proof the comparison can actually fire.
#
#   cmake -DBWSIM=path/to/bwsim -DOUT_DIR=work/dir
#         "-DRUN_ARGS=--algo combined --k 6" -DSHA256=<hex digest>
#         [-DSUBCOMMAND=single] -P pinned_trace.cmake
#
# SUBCOMMAND names the bwsim subcommand to run; it defaults to multi.
#
# RUN_ARGS is space-separated (not a ;-list) so the whole invocation can
# itself be nested as one argv element of expect_fail.cmake's CMD.
if(NOT DEFINED BWSIM OR NOT DEFINED OUT_DIR OR NOT DEFINED SHA256)
  message(FATAL_ERROR "pinned_trace.cmake: BWSIM, OUT_DIR and SHA256 required")
endif()
if(NOT DEFINED RUN_ARGS)
  message(FATAL_ERROR "pinned_trace.cmake: RUN_ARGS required")
endif()
if(NOT DEFINED SUBCOMMAND)
  set(SUBCOMMAND multi)
endif()
separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
  COMMAND "${BWSIM}" ${SUBCOMMAND} ${run_args} --trace-out "${OUT_DIR}/trace.ndjson"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "bwsim ${SUBCOMMAND} failed (${exit_code})\n${out}\n${err}")
endif()
if(NOT EXISTS "${OUT_DIR}/trace.ndjson")
  message(FATAL_ERROR "no trace written")
endif()
file(SHA256 "${OUT_DIR}/trace.ndjson" digest)
if(NOT digest STREQUAL SHA256)
  message(FATAL_ERROR
    "NDJSON trace differs from the pinned bytes (sha256 ${digest}, "
    "pinned ${SHA256}); trace kept in ${OUT_DIR}")
endif()
