# exiotctl rejects run sizes that make no sense: each invocation below must
# stop with a usage error (exit code 2) before running anything — a zero or
# negative --days/--hours, and a zero, negative or non-finite --scale.
#
#   cmake -DEXIOTCTL=path/to/exiotctl -DWORK_DIR=dir -P exiotctl_args_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")

set(cases
  "simulate --days 0"
  "simulate --days -2"
  "simulate --scale -1"
  "simulate --scale 0"
  "simulate --scale nan"
  "metrics --scale inf"
  "capture --dir ${WORK_DIR} --hours -2"
  "capture --dir ${WORK_DIR} --hours 0"
  "capture --dir ${WORK_DIR} --scale -0.5")

foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${EXIOTCTL}" ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "exiotctl ${case}: expected exit 2, got ${rc}\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES "must be")
    message(FATAL_ERROR "exiotctl ${case}: no usage message:\n${err}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
