# Runs one CI smoke and compares the last digest it prints with the
# checked-in expected value:
#   cmake -DBENCH=<binary> -DARGS="<argv>" -DNAME=<smoke>
#         -DEXPECTED=<digests.txt> -DWORKDIR=<dir> -P digest.cmake
# ARGS is one space-separated string (the smoke's CI command line). The
# bench runs in WORKDIR, so any file it writes lands in the build tree.
# EXPECTED holds one "<smoke> <digest>" line per smoke; '#' lines are
# comments.
foreach(var BENCH ARGS NAME EXPECTED WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "digest.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${argv} WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE output RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with status ${status}")
endif()

string(REGEX MATCHALL "digest=[0-9a-f]+" digests "${output}")
if(NOT digests)
  message(FATAL_ERROR "${BENCH} ${ARGS} printed no digest=")
endif()
list(GET digests -1 last)
string(REPLACE "digest=" "" actual "${last}")

file(STRINGS "${EXPECTED}" lines REGEX "^${NAME} ")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "${EXPECTED} needs exactly one '${NAME} <digest>' "
                      "line, found ${count}")
endif()
string(REGEX REPLACE "^${NAME} +" "" expected "${lines}")
string(STRIP "${expected}" expected)

if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "smoke '${NAME}' printed digest ${actual}, expected "
                      "${expected} (${EXPECTED})")
endif()
