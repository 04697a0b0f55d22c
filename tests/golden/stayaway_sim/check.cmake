# Runs stayaway_sim on this directory's golden scenario in a fresh WORK
# directory and byte-compares its stdout, series CSV and template export
# against the committed goldens.
#
#   cmake -DSIM=<stayaway_sim> -DGOLDEN=<this dir> -DWORK=<dir> -P check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(COPY "${GOLDEN}/scenario.conf" "${GOLDEN}/faults.conf"
     DESTINATION "${WORK}")
execute_process(
  COMMAND "${SIM}" --faults faults.conf scenario.conf
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_FILE "${WORK}/stdout.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stayaway_sim exited with ${rc}")
endif()
foreach(pair "stdout.txt:stdout.golden" "series.csv:series.golden.csv"
             "learned.template.csv:template.golden.csv")
  string(REPLACE ":" ";" files "${pair}")
  list(GET files 0 actual)
  list(GET files 1 expected)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}/${expected}"
            "${WORK}/${actual}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${actual} differs from ${GOLDEN}/${expected}")
  endif()
endforeach()
