# End-to-end crash-tolerance contract at the CLI level: a run that is
# killed by an injected crash (exit 3, torn journal on disk) and then
# resumed from its last checkpoint must finish with a trace file and a
# result JSON byte-identical to an uninterrupted run of the same seed.
# Both runs checkpoint at the same cadence so the straight run journals
# the same kCheckpoint events the crashed+resumed run does.
#
#   cmake -DBWSIM=path/to/bwsim -DOUT_DIR=work/dir
#         -P crash_resume_roundtrip.cmake
if(NOT DEFINED BWSIM OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "crash_resume_roundtrip.cmake: BWSIM and OUT_DIR required")
endif()
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}/ckpt_straight" "${OUT_DIR}/ckpt_crash")

set(run_args multi --algo phased --k 4 --bo 64 --do 8 --horizon 600
    --seed 7 --audit true --json true --checkpoint-every 64)

# 1. Uninterrupted reference run.
execute_process(
  COMMAND "${BWSIM}" ${run_args}
          --checkpoint-dir "${OUT_DIR}/ckpt_straight"
          --trace-out "${OUT_DIR}/straight.ndjson"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE straight_out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
    "straight run failed (${exit_code})\n${straight_out}\n${err}")
endif()

# 2. Same run, crashed after slot 257: must exit 3 and leave both the torn
# journal and the slot-256 checkpoint behind.
execute_process(
  COMMAND "${BWSIM}" ${run_args}
          --checkpoint-dir "${OUT_DIR}/ckpt_crash"
          --trace-out "${OUT_DIR}/resumed.ndjson"
          --crash-at-slot 257
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 3)
  message(FATAL_ERROR
    "crashed run exited ${exit_code}, expected 3\n${out}\n${err}")
endif()
if(NOT EXISTS "${OUT_DIR}/ckpt_crash/multi.ckpt")
  message(FATAL_ERROR "crashed run left no checkpoint behind")
endif()
if(NOT EXISTS "${OUT_DIR}/resumed.ndjson")
  message(FATAL_ERROR "crashed run did not flush its torn journal")
endif()

# 3. Resume from the checkpoint into the torn journal; must finish clean.
execute_process(
  COMMAND "${BWSIM}" ${run_args}
          --checkpoint-dir "${OUT_DIR}/ckpt_crash"
          --trace-out "${OUT_DIR}/resumed.ndjson"
          --resume-from "${OUT_DIR}/ckpt_crash/multi.ckpt"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE resumed_out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR
    "resumed run failed (${exit_code})\n${resumed_out}\n${err}")
endif()

# 4. Byte identity: the NDJSON journal and the result/audit JSON on stdout.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${OUT_DIR}/straight.ndjson" "${OUT_DIR}/resumed.ndjson"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
    "NDJSON trace differs between the straight and crash+resume runs")
endif()
if(NOT straight_out STREQUAL resumed_out)
  message(FATAL_ERROR
    "result JSON differs between the straight and crash+resume runs\n"
    "straight:\n${straight_out}\nresumed:\n${resumed_out}")
endif()

# 5. The published checkpoint must be inspectable.
execute_process(
  COMMAND "${BWSIM}" checkpoint-dump "${OUT_DIR}/ckpt_crash/multi.ckpt"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "checkpoint-dump failed (${exit_code})\n${err}")
endif()
if(NOT out MATCHES "\"kind\":\"multi-event\"")
  message(FATAL_ERROR "checkpoint-dump did not report a multi kind:\n${out}")
endif()
