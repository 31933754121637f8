# exiotctl rejects input it cannot use: each invocation below must stop
# with a usage error (exit code 2) naming the offending flag, before
# running anything — a zero or negative --days/--hours, a zero, negative
# or non-finite --scale, more --sites than a site mask holds, a flag the
# subcommand does not read, a --port outside 0..65535, an --api-timeout
# below 1, serve's API limits, a non-finite value for any numeric flag
# (from_chars accepts "nan" and "inf") and a negative --site-reconnect.
#
#   cmake -DEXIOTCTL=path/to/exiotctl -DWORK_DIR=dir -P exiotctl_args_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")

# Runs exiotctl with `case` and demands exit code 2 with stderr matching
# `pattern`.
function(expect_usage_error case pattern)
  separate_arguments(argv UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${EXIOTCTL}" ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "exiotctl ${case}: expected exit 2, got ${rc}\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "exiotctl ${case}: expected \"${pattern}\" in:\n"
                        "${err}")
  endif()
endfunction()

set(range_cases
  "simulate --days 0"
  "simulate --days -2"
  "simulate --scale -1"
  "simulate --scale 0"
  "simulate --scale nan"
  "metrics --scale inf"
  "capture --dir ${WORK_DIR} --hours -2"
  "capture --dir ${WORK_DIR} --hours 0"
  "capture --dir ${WORK_DIR} --scale -0.5"
  "simulate --sites 128")
foreach(case IN LISTS range_cases)
  expect_usage_error("${case}" "must be")
endforeach()

# Flags a subcommand does not read, misspelled or removed.
expect_usage_error(
  "simulate --scale 0.01 --days 1 --annotate-wrkers 3 --bogus 1"
  "unknown flag --annotate-wrkers")
expect_usage_error("simulate --annotate-workers 4"
                   "unknown flag --annotate-workers")
expect_usage_error("replay --dir ${WORK_DIR} --scale 0.1"
                   "unknown flag --scale")
expect_usage_error("simulate --site-skew 0,1" "unknown flag --site-skew")
expect_usage_error("simulate --scale 0.01 --days" "--days expects a value")

# Non-finite numbers, and a reconnect delay that would let messages sent
# late in an outage through undelayed.
expect_usage_error("simulate --scale 0.01 --site-reconnect nan"
                   "--site-reconnect must be a finite number")
expect_usage_error("simulate --scale 0.01 --site-reconnect -1"
                   "--site-reconnect must be >= 0")
expect_usage_error("simulate --scale 0.01 --sites 2 --site-outage 1:0:inf"
                   "--site-outage expects IDX:FROM:TO")
expect_usage_error("simulate --scale 0.01 --trace-sample nan"
                   "--trace-sample must be a finite number")

# serve checks every flag before it runs the pipeline: the data directory
# the pipeline would create must not exist afterwards.
set(serve "serve --scale 0.01 --data-dir ${WORK_DIR}/serve")
expect_usage_error("${serve} --port 70000" "--port must be in 0..65535")
expect_usage_error("${serve} --port -1" "--port must be in 0..65535")
expect_usage_error("${serve} --api-timeout -5" "--api-timeout must be >= 1")
expect_usage_error("${serve} --api-timeout 0" "--api-timeout must be >= 1")
expect_usage_error("${serve} --api-cache-bytes -1"
                   "--api-cache-bytes must be >= 0")
expect_usage_error("${serve} --api-rate-limit -1"
                   "--api-rate-limit must be >= 0")
expect_usage_error("${serve} --api-rate-limit inf"
                   "--api-rate-limit must be a finite number")
if(EXISTS "${WORK_DIR}/serve")
  message(FATAL_ERROR "exiotctl serve ran the pipeline before rejecting "
                      "its flags")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
