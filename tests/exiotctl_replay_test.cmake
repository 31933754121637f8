# End-to-end check of `exiotctl replay`: captures four hours at a tiny
# scale, replays them, and expects idle flows to expire at each file's own
# hour end — some file other than the last must report ended flows.
#
#   cmake -DEXIOTCTL=path/to/exiotctl -DWORK_DIR=dir -P exiotctl_replay_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")

execute_process(
  COMMAND "${EXIOTCTL}" capture --dir "${WORK_DIR}" --hours 4 --scale 0.02
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capture failed (${rc}):\n${out}${err}")
endif()

execute_process(
  COMMAND "${EXIOTCTL}" replay --dir "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay failed (${rc}):\n${out}${err}")
endif()
message(STATUS "replay output:\n${out}")

# Per-file rows: <file> <packets> <scanners> <flows_ended>.
string(REGEX MATCHALL "telescope-[0-9]+\\.ext +[0-9]+ +[0-9]+ +[0-9]+"
       rows "${out}")
list(LENGTH rows files)
if(NOT files EQUAL 4)
  message(FATAL_ERROR "expected 4 per-file rows, got ${files}")
endif()
list(REMOVE_AT rows -1)
set(ended_before_last 0)
foreach(row IN LISTS rows)
  string(REGEX REPLACE ".* ([0-9]+)$" "\\1" ended "${row}")
  math(EXPR ended_before_last "${ended_before_last} + ${ended}")
endforeach()
if(ended_before_last EQUAL 0)
  message(FATAL_ERROR "no flow ended before the last file: idle flows are "
                      "not expiring per hour")
endif()
