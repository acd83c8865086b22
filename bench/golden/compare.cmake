# Runs one paper bench and compares its stdout with a golden file:
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
# The replication runner's header line names the thread count and the
# wall time, which vary from run to run; both are masked on each side
# before the comparison. Everything else must match byte for byte. On a
# mismatch the actual output is left in ACTUAL for diffing.
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)

foreach(var actual expected)
  string(REGEX REPLACE ", [0-9]+ threads, " ", <N> threads, " ${var}
         "${${var}}")
  string(REGEX REPLACE ", [0-9]+\\.[0-9]+ s wall;" ", <X> s wall;" ${var}
         "${${var}}")
endforeach()

if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${GOLDEN} (thread count and wall "
    "time masked); actual output written to ${ACTUAL}")
endif()
